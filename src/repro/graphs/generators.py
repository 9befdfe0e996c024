"""Planar and minor-free graph families used throughout the reproduction.

Every generator returns a **connected simple graph with integer labels**
``0..n-1`` so the CONGEST programs (which use ids as initial colors) work
unchanged.  Families:

* grids and triangulated grids (minor-free workhorses; triangulated grids
  are additionally far from cycle-free and far from bipartite -- the
  Corollary 16 workloads);
* random Apollonian networks (random maximal planar graphs);
* random planar graphs of a target density (Apollonian + random deletion);
* Delaunay triangulations of random points (scipy);
* random maximal outerplanar graphs (K4-minor-free);
* random trees.
"""

from __future__ import annotations

import random
from typing import Optional

import networkx as nx

from ..errors import GraphInputError


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """The rows x cols grid, relabeled to integers (planar, bipartite)."""
    if rows < 1 or cols < 1:
        raise GraphInputError("grid dimensions must be positive")
    return nx.convert_node_labels_to_integers(nx.grid_2d_graph(rows, cols))

def triangulated_grid(rows: int, cols: int) -> nx.Graph:
    """Grid plus one diagonal per cell: planar, 2/3 of edges in triangles.

    Far from cycle-free (a spanning forest keeps only ~ n of ~ 3n edges)
    and far from bipartite (edge-disjoint triangles), yet planar -- the
    canonical Corollary 16 "far" workload under the minor-free promise.
    """
    if rows < 2 or cols < 2:
        raise GraphInputError("triangulated grid needs at least 2x2 nodes")
    base = nx.grid_2d_graph(rows, cols)
    for r in range(rows - 1):
        for c in range(cols - 1):
            base.add_edge((r, c), (r + 1, c + 1))
    return nx.convert_node_labels_to_integers(base)


def random_apollonian(n: int, seed: Optional[int] = None) -> nx.Graph:
    """Random Apollonian network: a random maximal planar graph.

    Start from a triangle; repeatedly choose a random (inner) face and
    insert a new node adjacent to its three corners.  The result has
    exactly ``3n - 6`` edges and is maximally planar.
    """
    if n < 3:
        raise GraphInputError("Apollonian networks need n >= 3")
    rng = _rng(seed)
    graph = nx.Graph()
    graph.add_edges_from([(0, 1), (1, 2), (0, 2)])
    faces = [(0, 1, 2)]
    for new in range(3, n):
        index = rng.randrange(len(faces))
        a, b, c = faces[index]
        graph.add_edges_from([(new, a), (new, b), (new, c)])
        faces[index] = (a, b, new)
        faces.append((a, c, new))
        faces.append((b, c, new))
    return graph


def random_planar(
    n: int,
    m: Optional[int] = None,
    seed: Optional[int] = None,
) -> nx.Graph:
    """Connected random planar graph with ``n`` nodes and ``~m`` edges.

    Builds a random Apollonian network and deletes random non-bridge
    edges until the target edge count (default ``2n``) is reached.
    """
    if n < 3:
        raise GraphInputError("random_planar needs n >= 3")
    target_m = min(2 * n, 3 * n - 6) if m is None else m
    if target_m < n - 1 or target_m > 3 * n - 6:
        raise GraphInputError(
            f"target edge count {target_m} outside [{n - 1}, {3 * n - 6}]"
        )
    rng = _rng(seed)
    graph = random_apollonian(n, seed=rng.randrange(2**31))
    edges = list(graph.edges())
    rng.shuffle(edges)
    m = graph.number_of_edges()
    for u, v in edges:
        if m <= target_m:
            break
        graph.remove_edge(u, v)
        # Keep the graph connected: re-add bridges.
        if _still_connected(graph.adj, u, v):
            m -= 1
        else:
            graph.add_edge(u, v)
    return graph


def _still_connected(adj, u, v) -> bool:
    """True if *u* and *v* are joined by a path in *adj*.

    Bidirectional BFS, always growing the smaller frontier: a deleted
    planar edge almost always has a short detour, which this finds
    after touching only the few nodes around it.
    """
    seen_u, seen_v = {u}, {v}
    front_u, front_v = [u], [v]
    while front_u and front_v:
        if len(front_u) > len(front_v):
            front_u, front_v = front_v, front_u
            seen_u, seen_v = seen_v, seen_u
        grown = []
        for x in front_u:
            for y in adj[x]:
                if y in seen_v:
                    return True
                if y not in seen_u:
                    seen_u.add(y)
                    grown.append(y)
        front_u = grown
    return False


def gnp_random_graph(n: int, p: float, seed: int) -> nx.Graph:
    """The graph ``nx.gnp_random_graph(n, p, seed=seed)`` builds, via numpy.

    networkx draws one ``random.Random(seed).random()`` per pair in
    ``combinations(range(n), 2)`` order, and each draw is built from two
    MT19937 words ``a, b`` as ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``.
    Loading the same Mersenne Twister state into numpy reproduces those
    words, so each row ``i`` compares its ``2 (n - 1 - i)`` words against
    ``p`` at once and adds the hits in the same order, so the graph and
    its adjacency order match networkx exactly.  Rows are drawn one at a
    time so the temporaries stay O(n); the all-pairs draw would allocate
    O(n^2) words.
    """
    if p >= 1:
        return nx.complete_graph(n)
    graph = nx.empty_graph(n)
    if p <= 0:
        return graph
    import numpy as np

    state = random.Random(seed).getstate()[1]
    bits = np.random.MT19937()
    bits.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]},
    }
    for i in range(n - 1):
        words = bits.random_raw(2 * (n - 1 - i))
        draws = (words[0::2] >> 5) * 67108864 + (words[1::2] >> 6)
        hits = np.flatnonzero(draws * (1.0 / 9007199254740992.0) < p)
        graph.add_edges_from((i, j) for j in (hits + (i + 1)).tolist())
    return graph


def delaunay_graph(n: int, seed: Optional[int] = None) -> nx.Graph:
    """Delaunay triangulation of ``n`` random points (planar, connected)."""
    if n < 3:
        raise GraphInputError("delaunay_graph needs n >= 3")
    import numpy as np
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    tri = Delaunay(points)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for simplex in tri.simplices:
        a, b, c = map(int, simplex)
        graph.add_edges_from([(a, b), (b, c), (a, c)])
    return graph


def random_outerplanar(
    n: int, seed: Optional[int] = None, maximal: bool = True
) -> nx.Graph:
    """Random (maximal) outerplanar graph: polygon + non-crossing chords.

    Outerplanar graphs are K4-minor-free and K23-minor-free; they exercise
    the minor-free promise with a different excluded minor than planarity.
    When ``maximal`` is False roughly half the chords are dropped.
    """
    if n < 3:
        raise GraphInputError("random_outerplanar needs n >= 3")
    rng = _rng(seed)
    graph = nx.cycle_graph(n)
    chords = []
    _triangulate_polygon(rng, 0, n - 1, chords)
    if not maximal:
        chords = [c for c in chords if rng.random() < 0.5]
    graph.add_edges_from(chords)
    return graph


def _triangulate_polygon(rng: random.Random, i: int, j: int, chords) -> None:
    """Randomly triangulate polygon vertices i..j (iterative)."""
    stack = [(i, j)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        k = rng.randint(a + 1, b - 1)
        if k - a >= 2:
            chords.append((a, k))
            stack.append((a, k))
        if b - k >= 2:
            chords.append((k, b))
            stack.append((k, b))


def random_tree(n: int, seed: Optional[int] = None) -> nx.Graph:
    """Uniform random labeled tree (Prüfer-based)."""
    if n < 1:
        raise GraphInputError("random_tree needs n >= 1")
    if n <= 2:
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        if n == 2:
            graph.add_edge(0, 1)
        return graph
    rng = _rng(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    return nx.from_prufer_sequence(prufer)


PLANAR_FAMILIES = {
    "grid": lambda n, seed=None: grid_graph(_near_square(n)[0], _near_square(n)[1]),
    "tri-grid": lambda n, seed=None: triangulated_grid(*_near_square(n)),
    "apollonian": random_apollonian,
    "planar-sparse": lambda n, seed=None: random_planar(n, m=int(1.5 * n), seed=seed),
    "delaunay": delaunay_graph,
    "outerplanar": random_outerplanar,
    "tree": random_tree,
}
"""Named planar family constructors ``f(n, seed) -> nx.Graph`` used by
benchmarks and the CLI.  Grid sizes are rounded to the nearest rectangle."""


def _near_square(n: int):
    rows = max(2, int(n**0.5))
    cols = max(2, (n + rows - 1) // rows)
    return rows, cols


def make_planar(family: str, n: int, seed: Optional[int] = None) -> nx.Graph:
    """Build a named planar family member (see :data:`PLANAR_FAMILIES`)."""
    try:
        builder = PLANAR_FAMILIES[family]
    except KeyError:
        raise GraphInputError(
            f"unknown planar family {family!r}; choose from "
            f"{sorted(PLANAR_FAMILIES)}"
        ) from None
    return builder(n, seed=seed)
