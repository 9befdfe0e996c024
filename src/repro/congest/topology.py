"""Compiled graph topology shared across simulator runs.

:class:`CongestNetwork` historically re-derived its adjacency structure
from the :mod:`networkx` graph on every construction: per-node sorted
neighbor tuples, frozen membership sets, and the bandwidth budget.  For
a sweep that replays hundreds of trials on the same topology this work
was repeated per run even though the graph never changed.

A :class:`CompiledTopology` does that derivation exactly once per graph:

* node ids are normalized to **dense indices** ``0..n-1`` (sorted id
  order) with a CSR-style adjacency encoding (``indptr``/``indices``
  arrays over dense indices);
* per-node neighbor tuples (original ids, sorted), frozen neighbor
  sets for O(1) membership checks in the delivery loop, and frozen
  neighbor *index* sets over the dense indices;
* a dense degree table and the default per-edge bandwidth budget.

:func:`compile_topology` memoizes compilations per graph *object* (a
``WeakKeyDictionary``; a topology holds its graph only weakly, so retired
graphs do not leak), which is the hook
the runtime layer relies on: :func:`repro.runtime.run_jobs` hands the
same graph object to every trial of a sweep via its ``graphs`` hint, so
the topology is compiled exactly once per process no matter how many
jobs replay it.  :func:`topology_stats` exposes compile/reuse counters
so tests (and benchmarks) can assert that reuse actually happens.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import networkx as nx

from ..errors import GraphInputError
from .message import default_bandwidth_bits


class CompiledTopology:
    """Immutable, pre-derived adjacency structure of one simple graph.

    Attributes:
        graph: the source :class:`networkx.Graph`, held weakly (the
            memo maps the graph to this object, so a strong reference
            here would keep every compiled graph alive); ``None`` once
            the graph is gone.
        n: number of nodes.
        m: number of edges.
        nodes: node ids in sorted order (by *key* when one is given);
            position = dense index.
        index: mapping from node id to dense index.
        indptr: CSR row pointers (length ``n + 1``); the neighbors of
            dense index ``i`` are ``indices[indptr[i]:indptr[i + 1]]``.
        indices: CSR column indices (dense neighbor indices, sorted by
            the neighbor's node id within each row).
        degrees: dense degree table (``degrees[i]`` = degree of node
            ``nodes[i]``).
        neighbors: node id -> sorted tuple of neighbor ids (the shape
            :class:`~repro.congest.node.NodeContext` consumes).
        neighbor_sets: node id -> frozenset of neighbor ids (delivery
            loop membership checks).
        neighbor_index_sets: dense index -> frozenset of dense neighbor
            indices.
        bandwidth_bits: the default CONGEST budget for this ``n`` (see
            :func:`repro.congest.message.default_bandwidth_bits`).

    ``CompiledTopology(graph, key=id_key)`` orders nodes and CSR rows by
    *key* instead of natural order: the partition's relabel for labels
    that are not non-negative ints (see
    :func:`repro.partition.dense.dense_topology`).  The memoized
    :func:`compile_topology` always sorts naturally.
    """

    __slots__ = (
        "_graph_ref",
        "n",
        "m",
        "nodes",
        "index",
        "indptr",
        "indices",
        "degrees",
        "neighbors",
        "neighbor_sets",
        "neighbor_index_sets",
        "bandwidth_bits",
        "_plane_arrays",
        "_edge_arrays",
        "_batch_arrays",
        "__weakref__",
    )

    def __init__(self, graph: nx.Graph, key=None):
        if graph.is_directed() or graph.is_multigraph():
            raise GraphInputError("CongestNetwork requires a simple undirected graph")
        if any(u == v for u, v in graph.edges()):
            raise GraphInputError("CongestNetwork does not support self-loops")
        if graph.number_of_nodes() == 0:
            raise GraphInputError("CongestNetwork requires at least one node")
        self._graph_ref = weakref.ref(graph)
        self.n = graph.number_of_nodes()
        self.m = graph.number_of_edges()
        nodes: Tuple[Any, ...] = tuple(sorted(graph.nodes(), key=key))
        self.nodes = nodes
        index: Dict[Any, int] = {v: i for i, v in enumerate(nodes)}
        self.index = index

        indptr = array("q", [0])
        indices = array("q")
        degrees = array("q")
        neighbors: Dict[Any, Tuple[Any, ...]] = {}
        neighbor_sets: Dict[Any, frozenset] = {}
        neighbor_index_sets = []
        for v in nodes:
            nbrs = tuple(sorted(graph.neighbors(v), key=key))
            neighbors[v] = nbrs
            neighbor_sets[v] = frozenset(nbrs)
            row = [index[w] for w in nbrs]
            indices.extend(row)
            indptr.append(len(indices))
            degrees.append(len(nbrs))
            neighbor_index_sets.append(frozenset(row))
        self.indptr = indptr
        self.indices = indices
        self.degrees = degrees
        self.neighbors = neighbors
        self.neighbor_sets = neighbor_sets
        self.neighbor_index_sets = tuple(neighbor_index_sets)
        self.bandwidth_bits = default_bandwidth_bits(self.n)
        self._plane_arrays = None
        self._edge_arrays = None
        self._batch_arrays = None

    @property
    def graph(self) -> Optional[nx.Graph]:
        """The source graph, or ``None`` once it has been freed."""
        return self._graph_ref()

    # -- dense-index accessors ------------------------------------------------

    def plane_arrays(self) -> "PlaneArrays":
        """Edge-slot arrays backing the dense message plane (lazy, cached).

        Every directed edge ``(u, v)`` owns one *slot*: the position of
        ``v`` in ``u``'s CSR row addresses the half-edge ``u -> v``, and
        messages travelling ``u -> v`` land in the **mirror** slot (the
        position of ``u`` in ``v``'s row), so a receiver's mail for one
        round is exactly the stamped entries of its own row slice.  The
        arrays are derived once per topology and shared by every run.
        """
        arrays = self._plane_arrays
        if arrays is None:
            arrays = self._plane_arrays = PlaneArrays(self)
        return arrays

    def edge_arrays(self):
        """Undirected edges as numpy index arrays ``(eu, ev)``, ``eu < ev``.

        One row per edge, endpoints as dense indices, ordered by
        ``(eu, row position)`` -- the contiguous representation the
        CSR-native partition pipeline sweeps instead of networkx edge
        views.  Lazily built and cached.
        """
        arrays = self._edge_arrays
        if arrays is None:
            import numpy as np

            eu = []
            ev = []
            indptr, indices = self.indptr, self.indices
            for u in range(self.n):
                for j in range(indptr[u], indptr[u + 1]):
                    v = indices[j]
                    if u < v:
                        eu.append(u)
                        ev.append(v)
            arrays = self._edge_arrays = (
                np.asarray(eu, dtype=np.int64),
                np.asarray(ev, dtype=np.int64),
            )
        return arrays

    def batch_arrays(self) -> "BatchArrays":
        """Numpy views of the CSR structure for the batched tensor plane.

        Zero-copy where possible: ``indptr``/``indices`` are
        ``np.frombuffer`` views over the compiled ``array('q')``
        buffers, ``degrees`` and ``row_owner`` are derived from them at
        C speed.  Lazily built and cached per topology, so every trial
        of a batch over the same graph shares one export (mirroring
        :meth:`plane_arrays` on the scalar side).
        """
        arrays = self._batch_arrays
        if arrays is None:
            import numpy as np

            indptr = np.frombuffer(self.indptr, dtype=np.int64)
            if len(self.indices):
                indices = np.frombuffer(self.indices, dtype=np.int64)
            else:
                indices = np.zeros(0, dtype=np.int64)
            degrees = np.diff(indptr)
            row_owner = np.repeat(np.arange(self.n, dtype=np.int64), degrees)
            arrays = self._batch_arrays = BatchArrays(
                indptr=indptr,
                indices=indices,
                degrees=degrees,
                row_owner=row_owner,
            )
        return arrays

    def neighbor_indices(self, i: int):
        """Dense neighbor indices of dense index *i* (CSR row slice)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degree(self, node: Any) -> int:
        """Degree of *node* (by id)."""
        return self.degrees[self.index[node]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledTopology(n={self.n}, m={self.m})"


class PlaneArrays:
    """Flat edge-slot lookup tables for the dense message plane.

    Attributes:
        csr_ids: per-slot original node id of the row entry
            (``csr_ids[s] = nodes[indices[s]]``) -- the *sender* id seen
            by the receiver owning slot ``s``.
        mirror: per-slot index of the reversed half-edge: for slot ``j``
            encoding ``u -> v`` in u's row, ``mirror[j]`` is the slot of
            ``v -> u`` in v's row.  Writing a payload for ``v`` into
            ``mirror[j]`` files it exactly where v's row scan finds it.
        row_owner: per-slot dense index of the row's owner (receiver).
        send_slot: per sender dense index, mapping from a *target's
            original id* to the slot (in the target's row) that delivers
            to it -- one dict ``get`` both validates neighborship and
            addresses the write.
        broadcast_slots / broadcast_targets: per sender dense index, the
            mirror-slot list and receiver-index list of its whole row --
            a pure broadcast zips the two and never touches the CSR.

    All tables are plain Python lists of pre-boxed ints (not ``array``
    typecodes): the delivery loop indexes them millions of times per
    run, and list reads return shared int objects instead of boxing a
    fresh ``PyLong`` per access.
    """

    __slots__ = (
        "csr_ids",
        "mirror",
        "row_owner",
        "send_slot",
        "broadcast_slots",
        "broadcast_targets",
    )

    def __init__(self, topology: "CompiledTopology"):
        indptr = topology.indptr
        indices = list(topology.indices)
        nodes = topology.nodes
        n = topology.n
        csr_ids = [nodes[i] for i in indices]
        position: Dict[Tuple[int, int], int] = {}
        row_owner = [0] * len(indices)
        for u in range(n):
            for j in range(indptr[u], indptr[u + 1]):
                position[(u, indices[j])] = j
                row_owner[j] = u
        mirror = [position[(v, u)] for (u, v) in position]
        send_slot = []
        broadcast_slots = []
        broadcast_targets = []
        for u in range(n):
            lo, hi = indptr[u], indptr[u + 1]
            row_mirror = mirror[lo:hi]
            send_slot.append(dict(zip(csr_ids[lo:hi], row_mirror)))
            broadcast_slots.append(row_mirror)
            broadcast_targets.append(indices[lo:hi])
        self.csr_ids = csr_ids
        self.mirror = mirror
        self.row_owner = row_owner
        self.send_slot = tuple(send_slot)
        self.broadcast_slots = tuple(broadcast_slots)
        self.broadcast_targets = tuple(broadcast_targets)


@dataclass(frozen=True)
class BatchArrays:
    """Numpy CSR views of one topology (see ``batch_arrays``).

    Attributes:
        indptr: row pointers, length ``n + 1`` (int64 view).
        indices: per-slot dense index of the slot's *sender* -- for slot
            ``s`` in receiver ``row_owner[s]``'s row, ``indices[s]`` is
            the dense index of the neighbor whose broadcast lands there.
        degrees: dense degree table (``np.diff(indptr)``).
        row_owner: per-slot dense index of the row's owner (receiver).
    """

    indptr: Any
    indices: Any
    degrees: Any
    row_owner: Any


@dataclass
class TopologyStats:
    """Process-wide compile/reuse counters for :func:`compile_topology`."""

    compiled: int = 0
    reused: int = 0


_stats = TopologyStats()
_lock = threading.Lock()
_memo: "weakref.WeakKeyDictionary[nx.Graph, CompiledTopology]" = (
    weakref.WeakKeyDictionary()
)


def compile_topology(graph: nx.Graph, reuse: bool = True) -> CompiledTopology:
    """Compile (or fetch the memoized compilation of) *graph*.

    The memo is keyed by graph object identity -- networkx graphs hash
    by identity and are never mutated by the simulator, so two networks
    built over the *same* graph object share one compilation, while a
    structurally equal copy compiles separately.  Pass ``reuse=False``
    to force a fresh compilation (it is still stored for later reuse).

    Callers who mutate a graph between runs should recompile; as a
    guard, a memo hit whose node/edge counts no longer match the graph
    is discarded and recompiled (same-count rewires are not detected).
    """
    if reuse:
        with _lock:
            cached = _memo.get(graph)
        if cached is not None:
            if (
                cached.n == graph.number_of_nodes()
                and cached.m == graph.number_of_edges()
            ):
                with _lock:
                    _stats.reused += 1
                return cached
            # Stale hit (graph mutated since compilation): fall through
            # and recompile; the fresh topology overwrites the memo.
    topology = CompiledTopology(graph)
    with _lock:
        _memo[graph] = topology
        _stats.compiled += 1
    return topology


def topology_stats() -> TopologyStats:
    """A snapshot of the process-wide compile/reuse counters."""
    with _lock:
        return TopologyStats(compiled=_stats.compiled, reused=_stats.reused)


def reset_topology_stats() -> None:
    """Zero the compile/reuse counters (test isolation helper)."""
    with _lock:
        _stats.compiled = 0
        _stats.reused = 0
