"""Differential-testing fixtures: the seed Stage II pipeline.

Stage II ships one engine -- int adjacency extraction, the int LR core,
int labels and the vectorized violating mask (``repro.testers.stage2``)
-- but the label-keyed pipeline it replaced remains the semantic
reference the differential suites and benchmark E16 compare it
against.  Nothing outside ``tests/`` and ``benchmarks/`` imports this
module.

Kept from the seed implementation (modulo shortened docstrings):

* the dict-keyed LR planarity test (``_LRPlanarity``), every edge a
  ``(v, w)`` tuple and every conflict pair an object;
* the label-keyed BFS, preorder ranks, Euler-tour corners and interval
  builders;
* the Fenwick-sweep violating mask and the sampler with its ``O(s*k)``
  pairwise scan;
* ``test_part`` with its two extraction modes: ``native=True`` works on
  the dict-copy subgraphs of :func:`extract_part_subgraphs` and resolves
  samples against the Fenwick mask, ``native=False`` is the seed view
  path (networkx subgraph views and the pairwise scan).
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from ..congest.ledger import RoundLedger, TreeCostModel
from ..errors import GraphInputError
from ..graphs.structures import FenwickTree
from ..graphs.utils import id_key
from ..partition.parts import Part
from ..partition.stage1 import partition_stage1
from ..planarity.embedding import identity_rotation
from ..planarity.lr_planarity import PlanarityResult
from ..planarity.rotation import RotationSystem
from ..runtime.seeding import derive_rng
from .planarity import PlanarityTestConfig
from .results import PartVerdict, PlanarityTestResult
from .stage2 import Stage2Config, sample_size
from .violations import SamplingOutcome, edges_interlace

Edge = Tuple[Any, Any]
Interval = Tuple[int, int]


# -- LR planarity ----------------------------------------------------------


class _Interval:
    """An interval of back edges, identified by its low and high edges."""

    __slots__ = ("low", "high")

    def __init__(self, low: Optional[Edge] = None, high: Optional[Edge] = None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None

    def copy(self) -> "_Interval":
        return _Interval(self.low, self.high)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interval({self.low}, {self.high})"


class _ConflictPair:
    """A pair of (left, right) intervals of back edges."""

    __slots__ = ("L", "R")

    def __init__(
        self,
        left: Optional[_Interval] = None,
        right: Optional[_Interval] = None,
    ):
        self.L = left if left is not None else _Interval()
        self.R = right if right is not None else _Interval()

    def swap(self) -> None:
        self.L, self.R = self.R, self.L

    def lowest(self, lowpt: Dict[Edge, int]) -> int:
        if self.L.empty():
            return lowpt[self.R.low]
        if self.R.empty():
            return lowpt[self.L.low]
        return min(lowpt[self.L.low], lowpt[self.R.low])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConflictPair(L={self.L}, R={self.R})"


class _LRPlanarity:
    """Single-use state machine for one planarity check."""

    def __init__(self, graph: nx.Graph):
        if graph.is_directed() or graph.is_multigraph():
            raise GraphInputError("planarity check requires a simple undirected graph")
        if any(u == v for u, v in graph.edges()):
            raise GraphInputError("planarity check does not support self-loops")
        self.graph = graph
        self.adjs: Dict[Any, List[Any]] = {
            v: list(graph.neighbors(v)) for v in graph.nodes()
        }
        self.height: Dict[Any, Optional[int]] = {v: None for v in graph.nodes()}
        self.parent_edge: Dict[Any, Optional[Edge]] = {v: None for v in graph.nodes()}
        self.oriented_adj: Dict[Any, List[Any]] = {v: [] for v in graph.nodes()}
        self.lowpt: Dict[Edge, int] = {}
        self.lowpt2: Dict[Edge, int] = {}
        self.nesting_depth: Dict[Edge, int] = {}
        self.ref: Dict[Edge, Optional[Edge]] = {}
        self.side: Dict[Edge, int] = {}
        self.S: List[_ConflictPair] = []
        self.stack_bottom: Dict[Edge, Optional[_ConflictPair]] = {}
        self.lowpt_edge: Dict[Edge, Edge] = {}
        self.ordered_adjs: Dict[Any, List[Any]] = {}
        self.roots: List[Any] = []
        self.embedding = RotationSystem()
        self.left_ref: Dict[Any, Any] = {}
        self.right_ref: Dict[Any, Any] = {}

    # -- phase 1: orientation --------------------------------------------------

    def dfs_orientation(self, root: Any) -> None:
        oriented = set()
        dfs_stack = [root]
        ind: Dict[Any, int] = {}
        skip_init: Dict[Edge, bool] = {}

        while dfs_stack:
            v = dfs_stack.pop()
            e = self.parent_edge[v]
            adj = self.adjs[v]
            i = ind.get(v, 0)
            descended = False
            while i < len(adj):
                w = adj[i]
                vw = (v, w)
                if not skip_init.get(vw, False):
                    if (v, w) in oriented or (w, v) in oriented:
                        i += 1
                        continue
                    oriented.add(vw)
                    self.oriented_adj[v].append(w)
                    self.lowpt[vw] = self.height[v]
                    self.lowpt2[vw] = self.height[v]
                    self.ref[vw] = None
                    self.side[vw] = 1
                    if self.height[w] is None:  # tree edge: descend
                        self.parent_edge[w] = vw
                        self.height[w] = self.height[v] + 1
                        ind[v] = i
                        skip_init[vw] = True
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        descended = True
                        break
                    # back edge
                    self.lowpt[vw] = self.height[w]
                # postprocessing of edge vw (back edge now, or tree edge
                # after its subtree has completed)
                self.nesting_depth[vw] = 2 * self.lowpt[vw]
                if self.lowpt2[vw] < self.height[v]:  # chordal
                    self.nesting_depth[vw] += 1
                if e is not None:
                    if self.lowpt[vw] < self.lowpt[e]:
                        self.lowpt2[e] = min(self.lowpt[e], self.lowpt2[vw])
                        self.lowpt[e] = self.lowpt[vw]
                    elif self.lowpt[vw] > self.lowpt[e]:
                        self.lowpt2[e] = min(self.lowpt2[e], self.lowpt[vw])
                    else:
                        self.lowpt2[e] = min(self.lowpt2[e], self.lowpt2[vw])
                i += 1
            if not descended:
                ind[v] = i

    # -- phase 2: testing --------------------------------------------------------

    def _top(self) -> Optional[_ConflictPair]:
        return self.S[-1] if self.S else None

    def _conflicting(self, interval: _Interval, b: Edge) -> bool:
        return not interval.empty() and self.lowpt[interval.high] > self.lowpt[b]

    def dfs_testing(self, root: Any) -> bool:
        dfs_stack = [root]
        ind: Dict[Any, int] = {}
        skip_init: Dict[Edge, bool] = {}

        while dfs_stack:
            v = dfs_stack.pop()
            e = self.parent_edge[v]
            adj = self.ordered_adjs[v]
            i = ind.get(v, 0)
            descended = False
            while i < len(adj):
                w = adj[i]
                ei = (v, w)
                if not skip_init.get(ei, False):
                    self.stack_bottom[ei] = self._top()
                    if ei == self.parent_edge[w]:  # tree edge: descend
                        ind[v] = i
                        skip_init[ei] = True
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        descended = True
                        break
                    # back edge
                    self.lowpt_edge[ei] = ei
                    self.S.append(_ConflictPair(right=_Interval(ei, ei)))
                # integrate new return edges
                if self.lowpt[ei] < self.height[v]:
                    if w == adj[0]:  # first child/edge inherits directly
                        self.lowpt_edge[e] = self.lowpt_edge[ei]
                    elif not self.add_constraints(ei, e):
                        return False  # non-planar
                i += 1
            if descended:
                continue
            ind[v] = i
            if e is not None:
                self.remove_back_edges(e)
        return True

    def add_constraints(self, ei: Edge, e: Edge) -> bool:
        P = _ConflictPair()
        # merge return edges of e_i into P.R
        while True:
            Q = self.S.pop()
            if not Q.L.empty():
                Q.swap()
            if not Q.L.empty():
                return False  # non-planar
            if self.lowpt[Q.R.low] > self.lowpt[e]:
                # merge intervals
                if P.R.empty():
                    P.R.high = Q.R.high
                else:
                    self.ref[P.R.low] = Q.R.high
                P.R.low = Q.R.low
            else:
                # align
                self.ref[Q.R.low] = self.lowpt_edge[e]
            if self._top() is self.stack_bottom[ei]:
                break
        # merge conflicting return edges of e_1..e_{i-1} into P.L
        while self._conflicting(self._top().L, ei) or self._conflicting(
            self._top().R, ei
        ):
            Q = self.S.pop()
            if self._conflicting(Q.R, ei):
                Q.swap()
            if self._conflicting(Q.R, ei):
                return False  # non-planar
            # merge interval below lowpt(e_i) into P.R
            self.ref[P.R.low] = Q.R.high
            if Q.R.low is not None:
                P.R.low = Q.R.low
            if P.L.empty():
                P.L.high = Q.L.high
            else:
                self.ref[P.L.low] = Q.L.high
            P.L.low = Q.L.low
        if not (P.L.empty() and P.R.empty()):
            self.S.append(P)
        return True

    def remove_back_edges(self, e: Edge) -> None:
        u = e[0]
        # trim back edges ending at parent u: drop entire conflict pairs
        while self.S and self.S[-1].lowest(self.lowpt) == self.height[u]:
            P = self.S.pop()
            if P.L.low is not None:
                self.side[P.L.low] = -1
        if self.S:  # one more conflict pair to consider
            P = self.S.pop()
            # trim left interval
            while P.L.high is not None and P.L.high[1] == u:
                P.L.high = self.ref[P.L.high]
            if P.L.high is None and P.L.low is not None:
                self.ref[P.L.low] = P.R.low
                self.side[P.L.low] = -1
                P.L.low = None
            # trim right interval
            while P.R.high is not None and P.R.high[1] == u:
                P.R.high = self.ref[P.R.high]
            if P.R.high is None and P.R.low is not None:
                self.ref[P.R.low] = P.L.low
                self.side[P.R.low] = -1
                P.R.low = None
            self.S.append(P)
        # side of e is the side of a highest return edge
        if self.lowpt[e] < self.height[u]:  # e has return edge
            top = self.S[-1]
            hl = top.L.high
            hr = top.R.high
            if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                self.ref[e] = hl
            else:
                self.ref[e] = hr

    # -- phase 3: embedding -------------------------------------------------------

    def _resolve_side(self, e: Edge) -> int:
        """Resolve the absolute side of *e* through its ref chain."""
        chain: List[Edge] = []
        cur: Optional[Edge] = e
        while cur is not None and self.ref[cur] is not None:
            chain.append(cur)
            cur = self.ref[cur]
        for edge in reversed(chain):
            parent = self.ref[edge]
            self.side[edge] = self.side[edge] * self.side[parent]
            self.ref[edge] = None
        return self.side[e]

    def dfs_embedding(self, root: Any) -> None:
        dfs_stack = [root]
        ind: Dict[Any, int] = {}

        while dfs_stack:
            v = dfs_stack.pop()
            adj = self.ordered_adjs[v]
            i = ind.get(v, 0)
            descended = False
            while i < len(adj):
                w = adj[i]
                i += 1
                ei = (v, w)
                if ei == self.parent_edge[w]:  # tree edge
                    self.embedding.add_half_edge_first(w, v)
                    self.left_ref[v] = w
                    self.right_ref[v] = w
                    ind[v] = i
                    dfs_stack.append(v)
                    dfs_stack.append(w)
                    descended = True
                    break
                # back edge: insert the reversed half-edge at the ancestor
                if self.side[ei] == 1:
                    self.embedding.add_half_edge_cw(w, v, self.right_ref[w])
                else:
                    self.embedding.add_half_edge_ccw(w, v, self.left_ref[w])
                    self.left_ref[w] = v
            if not descended:
                ind[v] = i

    # -- driver ---------------------------------------------------------------

    def run(self) -> PlanarityResult:
        n = self.graph.number_of_nodes()
        m = self.graph.number_of_edges()
        if n > 2 and m > 3 * n - 6:
            return PlanarityResult(False, None)

        # Phase 1 on every component.
        for v in self.graph.nodes():
            if self.height[v] is None:
                self.height[v] = 0
                self.roots.append(v)
                self.dfs_orientation(v)

        # Phase 2.
        for v in self.graph.nodes():
            self.ordered_adjs[v] = sorted(
                self.oriented_adj[v], key=lambda w, v=v: self.nesting_depth[(v, w)]
            )
        for root in self.roots:
            if not self.dfs_testing(root):
                return PlanarityResult(False, None)

        # Phase 3: apply signs, re-sort, and build the rotation system.
        for v in self.graph.nodes():
            for w in self.oriented_adj[v]:
                e = (v, w)
                self.nesting_depth[e] *= self._resolve_side(e)
        for v in self.graph.nodes():
            self.ordered_adjs[v] = sorted(
                self.oriented_adj[v], key=lambda w, v=v: self.nesting_depth[(v, w)]
            )
            self.embedding.add_node(v)
            previous = None
            for w in self.ordered_adjs[v]:
                self.embedding.add_half_edge_cw(v, w, previous)
                previous = w
        for root in self.roots:
            self.dfs_embedding(root)
        return PlanarityResult(True, self.embedding)


# -- labels -------------------------------------------------------------------


def deterministic_bfs_tree(
    graph: nx.Graph, root: Any
) -> Tuple[Dict[Any, Optional[Any]], Dict[Any, int]]:
    """BFS tree matching the distributed construction of Section 2.2.1."""
    depths = {root: 0}
    order = deque([root])
    while order:
        v = order.popleft()
        for w in graph.adj[v]:
            if w not in depths:
                depths[w] = depths[v] + 1
                order.append(w)
    if len(depths) != graph.number_of_nodes():
        raise GraphInputError("BFS labeling requires a connected part")
    parents: Dict[Any, Optional[Any]] = {root: None}
    for v, d in depths.items():
        if v == root:
            continue
        candidates = [w for w in graph.adj[v] if depths[w] == d - 1]
        parents[v] = min(candidates, key=id_key)
    return parents, depths


def children_in_rotation_order(
    rotation: RotationSystem,
    parents: Dict[Any, Optional[Any]],
    v: Any,
) -> List[Any]:
    """Children of *v* in ``T_B``, ordered clockwise from the parent edge."""
    rot = rotation.rotation(v)
    parent = parents[v]
    if parent is None:
        ordered = rot
    else:
        idx = rot.index(parent)
        ordered = rot[idx + 1 :] + rot[:idx]
    return [w for w in ordered if parents.get(w) == v]


def embedding_ranks(
    graph: nx.Graph,
    root: Any,
    rotation: RotationSystem,
    parents: Dict[Any, Optional[Any]],
) -> Dict[Any, int]:
    """Preorder rank of every node under the embedding-ordered DFS of T_B."""
    ranks: Dict[Any, int] = {}
    counter = 0
    stack = [root]
    while stack:
        v = stack.pop()
        ranks[v] = counter
        counter += 1
        # Push children in reverse so the first child is visited first.
        for child in reversed(children_in_rotation_order(rotation, parents, v)):
            stack.append(child)
    if len(ranks) != graph.number_of_nodes():
        raise GraphInputError(
            "rotation order did not reach every node; embedding does not "
            "match the part"
        )
    return ranks


def non_tree_intervals(
    graph: nx.Graph,
    parents: Dict[Any, Optional[Any]],
    ranks: Dict[Any, int],
) -> List[Tuple[int, int, Any, Any]]:
    """Non-tree edges of T_B as rank intervals ``(a, b, u, v)`` with a < b."""
    intervals: List[Tuple[int, int, Any, Any]] = []
    for u, v in graph.edges():
        if parents.get(u) == v or parents.get(v) == u:
            continue
        a, b = ranks[u], ranks[v]
        if a > b:
            a, b = b, a
            u, v = v, u
        intervals.append((a, b, u, v))
    return intervals


def max_label_length(depths: Dict[Any, int]) -> int:
    """Length (in edge labels = id-sized words) of the longest node label."""
    return max(depths.values(), default=0)


def euler_tour_positions(
    graph: nx.Graph,
    root: Any,
    rotation: RotationSystem,
    parents: Dict[Any, Optional[Any]],
) -> Tuple[Dict[Tuple[Any, Any], int], int]:
    """Corner positions of non-tree half-edges along the tree's Euler tour."""
    n = graph.number_of_nodes()
    positions: Dict[Tuple[Any, Any], int] = {}
    if n <= 1:
        return positions, 0

    def is_tree(v: Any, w: Any) -> bool:
        return parents.get(v) == w or parents.get(w) == v

    rotations = {v: rotation.rotation(v) for v in graph.nodes()}
    index_of = {
        v: {w: i for i, w in enumerate(rot)} for v, rot in rotations.items()
    }
    counter = 0

    # Start by traversing the first tree edge of the root's rotation; the
    # gap preceding it is scanned on the final return.
    root_rot = rotations[root]
    first_tree_index = next(
        i for i, w in enumerate(root_rot) if is_tree(root, w)
    )
    current, incoming = root_rot[first_tree_index], root
    traversed = 1
    total_tree_half_edges = 2 * (n - 1)

    while traversed < total_tree_half_edges:
        rot = rotations[current]
        i = index_of[current][incoming]
        while True:
            i = (i + 1) % len(rot)
            w = rot[i]
            if is_tree(current, w):
                current, incoming = w, current
                traversed += 1
                break
            positions[(current, w)] = counter
            counter += 1

    # Final gap at the root: from after the last incoming edge up to (and
    # excluding) the starting tree edge.
    if current != root:
        raise GraphInputError("Euler tour did not return to the root")
    i = index_of[root][incoming]
    while True:
        i = (i + 1) % len(root_rot)
        if i == first_tree_index:
            break
        w = root_rot[i]
        if is_tree(root, w):
            raise GraphInputError("Euler tour missed a tree edge")
        positions[(root, w)] = counter
        counter += 1
    return positions, counter


def corner_intervals(
    graph: nx.Graph,
    parents: Dict[Any, Optional[Any]],
    positions: Dict[Tuple[Any, Any], int],
) -> List[Tuple[int, int, Any, Any]]:
    """Non-tree edges as corner-position intervals ``(a, b, u, v)``, a < b."""
    intervals: List[Tuple[int, int, Any, Any]] = []
    for u, v in graph.edges():
        if parents.get(u) == v or parents.get(v) == u:
            continue
        a, b = positions[(u, v)], positions[(v, u)]
        if a > b:
            a, b = b, a
            u, v = v, u
        intervals.append((a, b, u, v))
    return intervals


# -- violations ---------------------------------------------------------------


def violating_mask(intervals: Sequence[Interval], universe: int) -> List[bool]:
    """O(k log k + universe) violating-edge mask via two Fenwick sweeps."""
    k = len(intervals)
    mask = [False] * k

    # Sweep A: process queries by decreasing b; insert interval lefts for
    # intervals with d > current b.
    by_right_desc = sorted(range(k), key=lambda i: -intervals[i][1])
    tree = FenwickTree(universe)
    insert_order = sorted(range(k), key=lambda i: -intervals[i][1])
    ptr = 0
    for qi in by_right_desc:
        a, b = intervals[qi]
        while ptr < k and intervals[insert_order[ptr]][1] > b:
            tree.add(intervals[insert_order[ptr]][0])
            ptr += 1
        if tree.range_sum(a + 1, b - 1) > 0:
            mask[qi] = True

    # Sweep B: process queries by increasing a; insert interval rights for
    # intervals with c < current a.
    by_left_asc = sorted(range(k), key=lambda i: intervals[i][0])
    tree = FenwickTree(universe)
    insert_order = sorted(range(k), key=lambda i: intervals[i][0])
    ptr = 0
    for qi in by_left_asc:
        a, b = intervals[qi]
        while ptr < k and intervals[insert_order[ptr]][0] < a:
            tree.add(intervals[insert_order[ptr]][1])
            ptr += 1
        if tree.range_sum(a + 1, b - 1) > 0:
            mask[qi] = True

    return mask


def sample_and_detect(
    intervals: Sequence[Interval],
    sample_target: int,
    rng: random.Random,
    universe: Optional[int] = None,
    mask: Optional[List[bool]] = None,
) -> SamplingOutcome:
    """Paper Section 2.2.2 detection: sample ~s non-tree edges, broadcast."""
    k = len(intervals)
    if k == 0 or sample_target <= 0:
        return SamplingOutcome(False, sample_target, 0, False)
    probability = min(1.0, sample_target / k)
    chosen = [i for i in range(k) if rng.random() < probability]
    cap = max(4 * sample_target, 1)
    truncated = len(chosen) > cap
    if truncated:
        chosen = chosen[:cap]
    if universe is not None or mask is not None:
        if mask is None:
            mask = violating_mask(intervals, universe)
        for i in chosen:
            if mask[i]:
                # Reconstruct the seed's witness: the first partner in
                # index order.
                for j in range(k):
                    if j != i and edges_interlace(intervals[i], intervals[j]):
                        return SamplingOutcome(
                            True,
                            sample_target,
                            len(chosen),
                            truncated,
                            witness=(intervals[i], intervals[j]),
                        )
        return SamplingOutcome(False, sample_target, len(chosen), truncated)
    for i in chosen:
        for j in range(k):
            if j != i and edges_interlace(intervals[i], intervals[j]):
                return SamplingOutcome(
                    True,
                    sample_target,
                    len(chosen),
                    truncated,
                    witness=(intervals[i], intervals[j]),
                )
    return SamplingOutcome(False, sample_target, len(chosen), truncated)


# -- Stage II -----------------------------------------------------------------


def extract_part_subgraphs(graph: nx.Graph, partition) -> dict:
    """Concrete induced subgraphs of every part, in one pass over *graph*."""
    node_data = graph._node
    subs: dict = {}
    for pid, part in partition.parts.items():
        view = graph.subgraph(part.nodes)
        sub = nx.Graph()
        node_store = sub._node
        adj_store = sub._adj
        view_adj = view._adj
        for u in view:
            node_store[u] = node_data[u]
            adj_store[u] = dict(view_adj[u])
        subs[pid] = sub
    return subs


def test_part(
    graph: nx.Graph,
    part: Part,
    n_total: int,
    rng: random.Random,
    config: Stage2Config,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    subgraph: Optional[nx.Graph] = None,
    native: bool = True,
) -> PartVerdict:
    """Run Stage II on one part; return its verdict."""
    model = cost_model or TreeCostModel()
    local = RoundLedger()
    sub = graph.subgraph(part.nodes) if subgraph is None else subgraph
    n, m = sub.number_of_nodes(), sub.number_of_edges()

    # 1. BFS tree + counts (Section 2.2.1).
    parents, depths = deterministic_bfs_tree(sub, part.root)
    depth = max(depths.values(), default=0)
    local.charge(depth + 1, "stage2.bfs", f"BFS tree of depth {depth}")
    local.charge(
        model.convergecast(depth, 2) + model.broadcast(depth, 2),
        "stage2.counts",
        "aggregate and redistribute n(Gj), m(Gj)",
    )

    def verdict(accepted, reason, embedding_planar, sampled, violating):
        if ledger is not None:
            ledger.merge(local)
        return PartVerdict(
            pid=part.pid,
            accepted=accepted,
            reason=reason,
            n=n,
            m=m,
            non_tree_edges=max(0, m - (n - 1)),
            bfs_depth=depth,
            embedding_planar=embedding_planar,
            sampled=sampled,
            violating_exact=violating,
            rounds=local.total,
        )

    # 2. Density check.
    if n > 2 and m > 3 * n - 6:
        return verdict(False, "density", False, 0, None)

    # 3. Embedding (GH in the paper; LR here, GH round cost charged).
    diameter_bound = max(1, 2 * depth)
    local.charge(
        diameter_bound + min(math.ceil(math.log2(max(n, 2))), diameter_bound),
        "stage2.embedding",
        f"planar embedding, D<={diameter_bound} (Ghaffari-Haeupler bound)",
    )
    lr = check_planarity(sub)
    if lr.is_planar:
        rotation = lr.embedding
        embedding_planar = True
    else:
        if config.reject_on_embedding_failure:
            return verdict(False, "embedding", False, 0, None)
        rotation = identity_rotation(sub)
        embedding_planar = False

    # 4. Labels: corner positions on the tree's Euler tour (default) or
    # the paper-literal preorder ranks.
    if config.criterion == "corner":
        positions, universe = euler_tour_positions(sub, part.root, rotation, parents)
        intervals_full = corner_intervals(sub, parents, positions)
    elif config.criterion == "preorder":
        ranks = embedding_ranks(sub, part.root, rotation, parents)
        intervals_full = non_tree_intervals(sub, parents, ranks)
        universe = n
    else:
        raise ValueError(f"unknown criterion {config.criterion!r}")
    label_words = max_label_length(depths)
    local.charge(
        model.broadcast(depth, max(1, label_words)),
        "stage2.labels",
        f"distribute labels of <= {label_words} words",
    )
    intervals = [(a, b) for (a, b, _u, _v) in intervals_full]

    mask = (
        violating_mask(intervals, universe=universe)
        if config.collect_exact_violations
        else None
    )
    violating = sum(mask) if mask is not None else None

    # 5. Sampling-based detection (the native pipeline resolves sampled
    # interlacements via the Fenwick sweep -- reusing the analysis
    # mask when it was already computed; identical outcomes).
    s = sample_size(n_total, config)
    outcome = sample_and_detect(
        intervals,
        s,
        rng,
        universe=universe if native else None,
        mask=mask if native else None,
    )
    label_cost = max(1, 2 * label_words)
    local.charge(
        model.convergecast(depth, max(1, outcome.sampled))
        + model.broadcast(depth, max(1, outcome.sampled * label_cost)),
        "stage2.sampling",
        f"gather + broadcast {outcome.sampled} sampled edge labels",
    )
    if outcome.detected:
        return verdict(False, "violation", embedding_planar, outcome.sampled, violating)
    return verdict(True, None, embedding_planar, outcome.sampled, violating)


def check_planarity(graph: nx.Graph) -> PlanarityResult:
    """The seed LR planarity test."""
    return _LRPlanarity(graph).run()


def stage2_over_partition(graph, partition, stage2_config, seed=None, native=True):
    """The seed ``stage2_over_partition`` (see ``repro.testers.planarity``)."""
    model = TreeCostModel()
    n_total = graph.number_of_nodes()
    verdicts = []
    rejecting = []
    max_part_rounds = 0
    subgraphs = extract_part_subgraphs(graph, partition) if native else {}
    for pid in sorted(partition.parts, key=repr):
        part = partition.parts[pid]
        rng = derive_rng(seed, repr(pid), "stage2")
        verdict = test_part(
            graph,
            part,
            n_total=n_total,
            rng=rng,
            config=stage2_config,
            cost_model=model,
            subgraph=subgraphs.get(pid),
            native=native,
        )
        verdicts.append(verdict)
        max_part_rounds = max(max_part_rounds, verdict.rounds)
        if not verdict.accepted:
            rejecting.append(pid)
    return verdicts, rejecting, max_part_rounds


def test_planarity(graph, seed=None, config=None, native=True, stage1=partition_stage1):
    """The Theorem 1 tester with the seed Stage II.

    Stage I runs *stage1* -- the shipped partition by default, or the
    seed dict engine ``repro.partition._differential.partition_stage1``;
    Stage II runs the seed pipeline selected by *native*.
    """
    config = config or PlanarityTestConfig()
    stage1 = stage1(
        graph,
        epsilon=config.epsilon,
        alpha=config.alpha,
        max_phases=config.max_phases,
        early_stop=config.early_stop,
        charge_full_budget=config.charge_full_budget,
    )
    if not stage1.success:
        return PlanarityTestResult(
            accepted=False,
            rejected_stage="stage1",
            rejecting_parts=stage1.rejecting_parts,
            stage1=stage1,
            stage1_rounds=stage1.rounds,
            stage2_rounds=0,
        )
    verdicts, rejecting, max_part_rounds = stage2_over_partition(
        graph, stage1.partition, config.stage2(), seed=seed, native=native
    )
    return PlanarityTestResult(
        accepted=not rejecting,
        rejected_stage="stage2" if rejecting else None,
        rejecting_parts=tuple(sorted(rejecting, key=repr)),
        stage1=stage1,
        part_verdicts=verdicts,
        stage1_rounds=stage1.rounds,
        stage2_rounds=max_part_rounds,
    )
