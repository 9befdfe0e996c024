"""CSR-native Corollary 17 spanner layer.

The seed spanner builder walked :class:`~repro.partition.parts.Partition`
objects and re-derived the auxiliary graph through networkx views (it
survives as the test oracle :mod:`repro.partition._differential`).
This module builds the same spanner straight from the
:class:`~repro.partition.dense.DensePartitionState` arrays the
partition already produced:

* **tree edges** are read off the per-node parent array (one edge per
  non-root dense index, ``n - k`` total);
* **connector edges** come from one vectorized auxiliary-edge pass
  (:meth:`DensePartitionState.build_aux`), whose designated connectors
  use the seed's exact min-id tie-break;
* the spanner is emitted as flat edge arrays (:class:`DenseSpanner`),
  mirroring ``CompiledTopology.edge_arrays`` -- a networkx graph is
  materialized only on demand.

Stretch measurement runs as a *batched* level-synchronous BFS over the
CSR arrays: one ``(sources, n)`` frontier tensor per graph instead of
one ``nx.single_source_shortest_path_length`` call per sampled pair.
Both are bit-identical to the seed implementations (same edge sets,
same counts, same worst-ratio float) -- gated by
``tests/test_applications_dense.py`` and benchmark E19.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Tuple

import networkx as nx
import numpy as np

from ..errors import GraphInputError

if TYPE_CHECKING:  # pragma: no cover
    from ..congest.topology import CompiledTopology
    from ..partition.dense import DensePartitionState


class DenseSpanner:
    """A spanner as flat edge arrays over one compiled topology.

    The dense sibling of the ``spanner`` networkx graph in
    :class:`~repro.applications.spanner.SpannerResult`: endpoints are
    dense indices into ``topology.nodes`` (tree edges first, then the
    designated connectors), and the symmetric CSR adjacency used by the
    batched BFS is derived lazily and cached.

    Attributes:
        topology: the :class:`~repro.congest.topology.CompiledTopology`
            of the *input* graph (the spanner shares its node set and
            dense index space).
        su / sv: per spanner edge, the endpoint dense indices.
    """

    __slots__ = ("topology", "su", "sv", "_csr")

    def __init__(self, topology: "CompiledTopology", su, sv):
        self.topology = topology
        self.su = su
        self.sv = sv
        self._csr = None

    @property
    def n(self) -> int:
        """Number of nodes (same as the input graph)."""
        return self.topology.n

    @property
    def edge_count(self) -> int:
        """Number of spanner edges."""
        return int(len(self.su))

    def edge_arrays(self):
        """The spanner edges as index arrays ``(su, sv)``."""
        return self.su, self.sv

    def csr(self):
        """Symmetric CSR adjacency ``(indptr, indices, degrees)`` (cached)."""
        csr = self._csr
        if csr is None:
            csr = self._csr = adjacency_csr(self.topology.n, self.su, self.sv)
        return csr

    def edges(self) -> Iterator[Tuple[object, object]]:
        """Spanner edges as original node-id pairs."""
        ids = self.topology.nodes
        for u, v in zip(self.su.tolist(), self.sv.tolist()):
            yield ids[u], ids[v]

    def to_graph(self) -> nx.Graph:
        """Materialize the spanner as a networkx graph."""
        spanner = nx.Graph()
        spanner.add_nodes_from(self.topology.nodes)
        spanner.add_edges_from(self.edges())
        return spanner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DenseSpanner(n={self.n}, edges={self.edge_count})"


def adjacency_csr(n: int, eu, ev):
    """Symmetric CSR adjacency ``(indptr, indices, degrees)`` of an edge list."""
    src = np.concatenate((eu, ev))
    dst = np.concatenate((ev, eu))
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    order = np.argsort(src, kind="stable")
    return indptr, dst[order], degrees


def build_dense_spanner(
    state: "DensePartitionState",
) -> Tuple[DenseSpanner, int, int]:
    """Assemble the Corollary 17 spanner from a dense partition state.

    Returns ``(spanner, tree_edges, connector_edges)``.  Tree edges are
    the non-root rows of the parent array; connectors are the designated
    auxiliary-edge endpoints (inter-part by construction, so the two
    groups never overlap -- matching the seed builder's dedup, which
    provably never fires).
    """
    parent = np.asarray(state.parent, dtype=np.int64)
    child = np.nonzero(parent >= 0)[0]
    aux = state.build_aux()
    su = np.concatenate((child, aux.conn_u))
    sv = np.concatenate((parent[child], aux.conn_v))
    spanner = DenseSpanner(state.topology, su, sv)
    return spanner, int(len(child)), int(aux.edge_count())


def multi_source_distances(indptr, indices, degrees, sources, n: int):
    """Batched BFS distances from *sources* over one CSR adjacency.

    Returns an ``(S, n)`` int64 matrix of hop distances (``-1`` for
    unreachable).  Prefers scipy's C BFS over the CSR arrays directly
    (scipy is already in the graph-generator dependency set); without
    it, a pure-numpy level-synchronous sweep gathers the frontier
    across all CSR slots at once and folds per receiver row with
    ``logical_or.reduceat`` -- either way, no per-source or per-node
    Python loop, and identical hop counts.
    """
    count = len(sources)
    if count and n:
        try:
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import dijkstra
        except ImportError:  # pragma: no cover - scipy ships with the env
            pass
        else:
            adjacency = csr_matrix(
                (np.ones(len(indices), dtype=np.int8), indices, indptr),
                shape=(n, n),
            )
            raw = dijkstra(
                adjacency,
                unweighted=True,
                indices=np.asarray(sources, dtype=np.int64),
            )
            dist = np.full((count, n), -1, dtype=np.int64)
            finite = np.isfinite(raw)
            dist[finite] = raw[finite].astype(np.int64)
            return dist
    return _level_synchronous_distances(indptr, indices, degrees, sources, n)


def _level_synchronous_distances(indptr, indices, degrees, sources, n: int):
    """The numpy fallback BFS behind :func:`multi_source_distances`."""
    count = len(sources)
    rows = np.arange(count)
    dist = np.full((count, n), -1, dtype=np.int64)
    dist[rows, sources] = 0
    frontier = np.zeros((count, n), dtype=bool)
    frontier[rows, sources] = True
    # One padding column keeps every reduceat start index in bounds for
    # trailing empty rows; genuinely empty rows are masked afterwards.
    pad = np.zeros((count, 1), dtype=bool)
    starts = indptr[:-1]
    empty = degrees == 0
    depth = 0
    while True:
        depth += 1
        gathered = np.concatenate((frontier[:, indices], pad), axis=1)
        reached = np.logical_or.reduceat(gathered, starts, axis=1)
        reached[:, empty] = False
        new = reached & (dist < 0)
        if not new.any():
            break
        dist[new] = depth
        frontier = new
    return dist


def stretch_from_distances(dist_g, dist_s) -> float:
    """Worst ``d_S / d_G`` ratio given the two distance matrices.

    Raises :class:`~repro.errors.GraphInputError` when some node is
    graph-reachable but spanner-unreachable.  The result is the same
    float the per-pair networkx fold produces: the
    ratios are exact int64-over-int64 IEEE divisions and ``max`` over
    float64 is order-independent.
    """
    positive = dist_g > 0
    if bool(np.any(positive & (dist_s < 0))):
        raise GraphInputError("spanner does not span the graph")
    if not positive.any():
        return 1.0
    ratios = dist_s[positive] / dist_g[positive]
    worst = float(ratios.max())
    return worst if worst > 1.0 else 1.0
