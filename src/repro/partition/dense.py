"""CSR-native Stage I engine: the partition phase loop on flat arrays.

The seed phase loop re-derived everything from networkx views each
phase: :class:`~repro.partition.auxiliary.AuxiliaryGraph` iterated
``graph.edges()`` with per-edge ``id_key`` calls, ``cut_size`` iterated
them again, and every merge rebuilt frozensets and ``Part`` objects.
This module reruns the identical algorithm on the
:class:`~repro.congest.topology.CompiledTopology`'s dense-index arrays:

* the input graph is compiled once (:func:`dense_topology`); undirected
  edges live in two numpy index arrays (``eu``, ``ev``) shared by every
  phase;
* the partition state is a numpy ``part_of`` vector plus flat parent /
  tree-adjacency tables over dense indices -- cut sizes and auxiliary
  weights come from vectorized sweeps (``unique`` over packed endpoint
  pairs) instead of per-edge dict churn;
* the *decision* layer (forest decomposition, heaviest-out-edge
  selection, Cole-Vishkin, CHW marking, weighted selection) applies the
  exact rules of the emulated modules to dense indices.

This is the only partition engine; it accepts any hashable labels.
Equivalence with the seed dict engine (kept as the test oracle
:mod:`repro.partition._differential`): dense indices are assigned in
``id_key`` order, so every tie-break agrees with the seed's; RNG
streams are consumed in the same order; and Cole-Vishkin seeds each
part root as the seed does -- with its id when every current root is a
non-negative int, with its rank in ``repr`` order otherwise
(:func:`cv_seeds`).  Partitions, phase stats, ledgers and round counts
are therefore bit-identical, which ``tests/test_partition_dense.py``
asserts on every bundled generator under int, str, tuple, negative and
mixed labellings.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..congest.ledger import RoundLedger, TreeCostModel
from ..congest.programs.cole_vishkin import cv_schedule
from ..congest.topology import CompiledTopology, compile_topology
from ..errors import GraphInputError, PartitionError
from ..graphs.utils import id_key
from .coloring import cole_vishkin_emulated
from .marking import MarkingResult
from .parts import Part, Partition

_MAX_ID = 2**62  # int64 headroom for the vectorized CV bit tricks


def _is_dense_id(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < _MAX_ID


def dense_topology(graph: nx.Graph) -> CompiledTopology:
    """The compiled topology the partition engine runs *graph* on.

    Graphs whose labels are all non-negative int64-sized ints (every
    bundled generator) use the memoized :func:`compile_topology`: their
    sorted order already is ``id_key`` order.  Any other labels are
    relabelled here, at the boundary, by a private compilation whose
    dense ids follow ``id_key`` order; either way ``topology.nodes`` is
    the original-label table (dense id -> label) and ``topology.index``
    its inverse, so results report the caller's labels.
    """
    if graph.number_of_nodes() == 0:
        raise GraphInputError("the graph must have at least one node")
    if all(_is_dense_id(v) for v in graph):
        return compile_topology(graph)
    return CompiledTopology(graph, key=id_key)


def cv_seeds(labels: Sequence[Any]) -> List[int]:
    """Initial Cole-Vishkin colors for part roots with these *labels*.

    The default of :func:`~repro.partition.coloring.cole_vishkin_emulated`,
    evaluated over the *current* roots: the ids themselves when all of
    them are non-negative ints (the CONGEST assumption), otherwise each
    root's rank in ``repr`` order.  A mixed-label graph can switch from
    ranks to ids once its last non-int root is absorbed.
    """
    if all(isinstance(v, int) and v >= 0 for v in labels):
        return list(labels)
    order = sorted(range(len(labels)), key=lambda i: repr(labels[i]))
    seeds = [0] * len(labels)
    for rank, i in enumerate(order):
        seeds[i] = rank
    return seeds


def cole_vishkin_seeded(
    parent: "np.ndarray",
    root_labels: Sequence[Any],
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    height: int = 0,
) -> Tuple["np.ndarray", int]:
    """Cole-Vishkin on a compact pseudoforest, seeded by :func:`cv_seeds`.

    Seeds that fit the int64 bit tricks run vectorized
    (:func:`cole_vishkin_dense`); ids of ``2**62`` and above run the
    same update rules on Python ints through
    :func:`~repro.partition.coloring.cole_vishkin_emulated` (the rules
    are per-node and simultaneous, so keying by compact index gives the
    same colors).
    """
    seeds = cv_seeds(root_labels)
    if max(seeds, default=0) < _MAX_ID:
        return cole_vishkin_dense(
            parent,
            np.asarray(seeds, dtype=np.int64),
            ledger=ledger,
            cost_model=cost_model,
            height=height,
        )
    parents = {
        c: (p if p >= 0 else None) for c, p in enumerate(parent.tolist())
    }
    colors, rounds = cole_vishkin_emulated(
        parents,
        initial_colors=dict(enumerate(seeds)),
        ledger=ledger,
        cost_model=cost_model,
        height=height,
    )
    return np.asarray([colors[c] for c in range(len(seeds))], dtype=np.int64), rounds


class DenseAuxiliaryGraph:
    """Weighted contraction of a dense partition state, built vectorized.

    The primary representation is flat arrays over *compact* part
    indices ``0..k-1`` (``pids[c]`` maps back to the part's root dense
    index): one row per auxiliary edge with endpoints, weight, and the
    designated connector, plus a compact degree table.  The whole build
    is one masked sweep over the compiled edge arrays: weights via
    ``unique`` counts over packed endpoint-pair keys, designated
    connectors via a lexsort (minimum oriented edge per pair -- the
    seed's exact min-id tie-break).

    Dict adjacency in the :class:`~repro.partition.auxiliary.AuxiliaryGraph`
    interface (part ids = dense root indices) is materialized lazily for
    consumers that need per-node maps (the dict-keyed emulations the
    differential tests run on it); the engine's own sweeps never touch
    it.

    Attributes:
        pids: compact index -> root dense index.
        ea / eb: per aux edge, compact endpoint indices (``ea < eb`` in
            root order).
        weights: per aux edge, multiplicity (number of cut edges).
        conn_u / conn_v: per aux edge, the designated connector's dense
            node endpoints (``conn_u`` inside ``pids[ea]``'s part).
        degrees: compact degree table (distinct aux neighbors).
        cut: total cut weight (number of inter-part edges).
    """

    __slots__ = (
        "pids",
        "ea",
        "eb",
        "weights",
        "conn_u",
        "conn_v",
        "degrees",
        "cut",
        "_pair_keys",
        "_n",
        "_adj",
    )

    def __init__(self, part_of, eu, ev, n: int, roots=None):
        pu = part_of[eu]
        pv = part_of[ev]
        mask = pu != pv
        self.cut = int(mask.sum())
        cu = pu[mask]
        cv = pv[mask]
        lo = np.minimum(cu, cv)
        hi = np.maximum(cu, cv)
        # Connector endpoints oriented (node in lo-part, node in hi-part),
        # matching AuxiliaryGraph.connector's canonical orientation.
        su = eu[mask]
        sv = ev[mask]
        swapped = cu != lo
        ca = np.where(swapped, sv, su)
        cb = np.where(swapped, su, sv)
        pair_key = lo * n + hi
        conn_key = ca * n + cb
        order = np.lexsort((conn_key, pair_key))
        pair_sorted = pair_key[order]
        uniq, first, counts = np.unique(
            pair_sorted, return_index=True, return_counts=True
        )
        chosen = order[first]

        if roots is None:
            roots = np.unique(part_of).tolist()
        pids = list(roots)
        k = len(pids)
        compact_of = np.full(n, -1, dtype=np.int64)
        compact_of[np.asarray(pids, dtype=np.int64)] = np.arange(
            k, dtype=np.int64
        )
        self.pids = pids
        self._n = n
        self._pair_keys = uniq
        self.ea = compact_of[uniq // n]
        self.eb = compact_of[uniq % n]
        self.weights = counts.astype(np.int64)
        self.conn_u = ca[chosen]
        self.conn_v = cb[chosen]
        degrees = np.zeros(k, dtype=np.int64)
        np.add.at(degrees, self.ea, 1)
        np.add.at(degrees, self.eb, 1)
        self.degrees = degrees
        self._adj = None

    # -- array accessors ------------------------------------------------------

    @property
    def compact_count(self) -> int:
        """Number of auxiliary nodes (compact index range)."""
        return len(self.pids)

    # -- AuxiliaryGraph query interface (dict view, lazy) ---------------------

    def _dicts(self) -> Dict[int, Dict[int, int]]:
        adj = self._adj
        if adj is None:
            adj = {root: {} for root in self.pids}
            pids = self.pids
            for a, b, weight in zip(
                self.ea.tolist(), self.eb.tolist(), self.weights.tolist()
            ):
                pa, pb = pids[a], pids[b]
                adj[pa][pb] = weight
                adj[pb][pa] = weight
            self._adj = adj
        return adj

    @property
    def node_count(self) -> int:
        return len(self.pids)

    def nodes(self) -> Iterator[int]:
        return iter(self.pids)

    def neighbors(self, pid: int) -> Dict[int, int]:
        return self._dicts()[pid]

    def degree(self, pid: int) -> int:
        return len(self._dicts()[pid])

    def weight(self, pa: int, pb: int) -> int:
        return self._dicts()[pa].get(pb, 0)

    def weighted_degree(self, pid: int) -> int:
        return sum(self._dicts()[pid].values())

    def total_weight(self) -> int:
        return self.cut

    def edge_count(self) -> int:
        return len(self._pair_keys)

    def connector(self, pa: int, pb: int) -> Tuple[int, int]:
        if pa <= pb:
            key = pa * self._n + pb
            flip = False
        else:
            key = pb * self._n + pa
            flip = True
        pos = int(np.searchsorted(self._pair_keys, key))
        u = int(self.conn_u[pos])
        v = int(self.conn_v[pos])
        return (v, u) if flip else (u, v)

    def edge_parts(self) -> Iterator[Tuple[int, int]]:
        pids = self.pids
        for a, b in zip(self.ea.tolist(), self.eb.tolist()):
            yield (pids[a], pids[b])


def forest_decomposition_dense(
    aux: DenseAuxiliaryGraph,
    alpha: int,
    n_graph: int,
    height: int,
    budget: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    charge_full_budget: bool = True,
) -> Tuple[bool, "np.ndarray", "np.ndarray", int]:
    """Vectorized Barenboim-Elkin deactivation on the aux edge arrays.

    Array port of
    :func:`repro.partition.forest_decomposition.forest_decomposition_emulated`:
    each super-round deactivates every active compact node of aux degree
    <= 3*alpha and decrements the degrees of its still-active neighbors
    with one masked scatter-add per endpoint side.  Charges the ledger
    identically.

    Returns ``(success, active_mask, inactive_round, super_rounds)``
    with ``inactive_round`` holding the 1-based deactivation super-round
    (0 = never deactivated) per compact index.
    """
    from ..congest.programs.forest_decomposition import (
        barenboim_elkin_round_budget,
    )

    if budget is None:
        budget = barenboim_elkin_round_budget(n_graph)
    threshold = 3 * alpha
    k = aux.compact_count
    ea, eb = aux.ea, aux.eb
    degrees = aux.degrees.copy()
    active = np.ones(k, dtype=bool)
    inactive_round = np.zeros(k, dtype=np.int64)
    executed = 0
    for super_round in range(1, budget + 1):
        if not active.any():
            break
        executed = super_round
        deactivating = active & (degrees <= threshold)
        if not deactivating.any():
            # No node can ever deactivate again: the active subgraph has
            # min degree > 3*alpha, certifying arboricity > alpha.
            executed = budget
            break
        inactive_round[deactivating] = super_round
        active &= ~deactivating
        da = deactivating[ea]
        db = deactivating[eb]
        np.add.at(degrees, eb[da & active[eb]], -1)
        np.add.at(degrees, ea[db & active[ea]], -1)

    if ledger is not None:
        model = cost_model or TreeCostModel()
        per_super_round = model.super_round(height, alpha)
        charged_rounds = budget if charge_full_budget else executed
        ledger.charge(
            charged_rounds * per_super_round,
            "stage1.forest_decomposition",
            f"{charged_rounds} super-rounds x {per_super_round} rounds "
            f"(height {height}, alpha {alpha})",
        )
    super_rounds = budget if charge_full_budget else executed
    return (not bool(active.any()), active, inactive_round, super_rounds)


def orient_and_select_dense(
    aux: DenseAuxiliaryGraph, inactive_round: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Fused array port of ``_orient`` + the seed's heaviest-out-edge pick.

    Orients every aux edge by deactivation time (never-deactivated
    endpoints lose; ties by id order), then picks each compact node's
    heaviest outgoing edge with ties to the smallest neighbor -- one
    lexsort replaces the per-candidate comparison loop, with identical
    winners.  Returns ``(parent, weight)`` over compact indices
    (-1 / 0 where a node has no out-edge).
    """
    k = aux.compact_count
    ea, eb, w = aux.ea, aux.eb, aux.weights
    ra = inactive_round[ea]
    rb = inactive_round[eb]
    none_a = ra == 0
    none_b = rb == 0
    keep = ~(none_a & none_b)
    a_wins = keep & (
        none_b | (~none_a & ((ra < rb) | ((ra == rb) & (ea < eb))))
    )
    b_wins = keep & ~a_wins
    src = np.concatenate((ea[a_wins], eb[b_wins]))
    dst = np.concatenate((eb[a_wins], ea[b_wins]))
    ww = np.concatenate((w[a_wins], w[b_wins]))
    parent = np.full(k, -1, dtype=np.int64)
    weight = np.zeros(k, dtype=np.int64)
    if len(src):
        order = np.lexsort((dst, -ww, src))
        src_sorted = src[order]
        owners, first = np.unique(src_sorted, return_index=True)
        best = order[first]
        parent[owners] = dst[best]
        weight[owners] = ww[best]
    return parent, weight


def weighted_selection_dense(
    aux: DenseAuxiliaryGraph,
    trials: int,
    rng,
) -> Tuple[Dict[int, Optional[int]], Dict[Tuple[int, int], int]]:
    """Vectorized Theorem 4 weighted-edge selection on the aux arrays.

    Array port of
    :func:`repro.partition._differential.weighted_edge_selection`
    (the seed dict selection) that never materializes the lazy dict
    adjacency and replaces the per-draw ``rng.choices`` (which
    rebuilds its cumulative-weight list on *every* trial,
    ``O(trials * degree)`` Python work per part) with one CSR sweep
    plus a batched ``searchsorted``.

    **The RNG stream is consumed identically**: the seed loop draws
    one ``rng.random()`` per (part, trial) in ascending part order --
    compact order equals root-id order, so pre-drawing the same count
    in row-major order yields the exact floats.  Each draw then
    replicates ``random.choices``'s selection arithmetic bit for bit:
    ``index = bisect_right(cum_weights, r * total, 0, degree - 1)``
    with the multiplication performed in float64 exactly as CPython
    does.  The global ``searchsorted`` adds the segment base in float64
    (one possible ulp of error), so a two-step exact correction against
    the integer segment-local cumulative weights pins every index to
    the bisect result before use.  Best-of-draws keeps the heaviest
    edge with ties to the smallest neighbor id -- the same fold the
    sequential loop computes.

    Returns ``(out_edge, weights)`` keyed by part roots (dense ids), in
    ascending-root insertion order, exactly like the seed function.
    """
    pids = aux.pids
    k = aux.compact_count
    ea, eb, w = aux.ea, aux.eb, aux.weights
    # Symmetric CSR over compact indices, neighbors ascending (= id_key
    # order of the roots, the seed iteration order).
    src = np.concatenate((ea, eb))
    dst = np.concatenate((eb, ea))
    ww = np.concatenate((w, w))
    order = np.lexsort((dst, src))
    src_s = src[order]
    dst_s = dst[order]
    w_s = ww[order]
    counts = np.bincount(src_s, minlength=k)
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    cum = np.cumsum(w_s, dtype=np.int64)
    cum0 = np.concatenate((np.zeros(1, dtype=np.int64), cum))
    base = cum0[indptr[:-1]]  # total weight before each segment
    totals = (cum0[indptr[1:]] - base).astype(np.float64)

    active = np.nonzero(counts > 0)[0]
    drawn: Dict[int, Optional[int]] = {}
    if len(active) and trials > 0:
        # One rng.random() per (active part, trial), part-major: the
        # exact draws the sequential loop would consume.
        flat = np.array(
            [rng.random() for _ in range(len(active) * trials)],
            dtype=np.float64,
        ).reshape(len(active), trials)
        x = flat * totals[active][:, None]  # CPython: random() * total
        seg_start = indptr[active]
        seg_len = counts[active]
        queries = (base[active].astype(np.float64)[:, None] + x).ravel()
        approx = np.searchsorted(cum, queries, side="right").reshape(
            len(active), trials
        )
        local = approx - seg_start[:, None]
        hi = (seg_len - 1)[:, None]
        local = np.clip(local, 0, hi)
        # Exact off-by-one correction: the float base addition can be a
        # ulp off, never more (cumulative weights are distinct ints).
        flat_local = local + seg_start[:, None]
        lower = cum0[flat_local]  # cum before the candidate slot
        down = (local > 0) & (lower - base[active][:, None] > x)
        local -= down
        flat_local = local + seg_start[:, None]
        upper = cum0[flat_local + 1]
        up = (local < hi) & (upper - base[active][:, None] <= x)
        local += up
        flat_local = (local + seg_start[:, None]).ravel()
        cand = dst_s[flat_local].reshape(len(active), trials)
        cand_w = w_s[flat_local].reshape(len(active), trials)
        best_w = cand_w.max(axis=1)
        # Ties to the smallest neighbor id (compact order = id order).
        best_nb = np.where(cand_w == best_w[:, None], cand, k).min(axis=1)
        chosen = dict(
            zip(active.tolist(), zip(best_nb.tolist(), best_w.tolist()))
        )
    else:
        chosen = {}

    weight_of: Dict[int, int] = {}
    for compact in range(k):
        pid = pids[compact]
        pick = chosen.get(compact)
        if pick is None:
            drawn[pid] = None
        else:
            drawn[pid] = pids[pick[0]]
            weight_of[pid] = pick[1]

    # Resolve double selections exactly as the seed loop: the edge
    # becomes the out-edge of the smaller id; the larger endpoint is
    # left without an out-edge.
    out_edge: Dict[int, Optional[int]] = dict(drawn)
    for pid, target in drawn.items():
        if target is None:
            continue
        if drawn.get(target) == pid and target < pid:
            out_edge[pid] = None
    weights_out: Dict[Tuple[int, int], int] = {}
    for pid, target in out_edge.items():
        if target is not None:
            weights_out[(pid, target)] = weight_of[pid]
    return out_edge, weights_out


def cole_vishkin_dense(
    parent: "np.ndarray",
    init_colors: "np.ndarray",
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    height: int = 0,
    category: str = "stage1.coloring",
) -> Tuple["np.ndarray", int]:
    """Vectorized Cole-Vishkin 3-coloring of a compact pseudoforest.

    Array port of :func:`repro.partition.coloring.cole_vishkin_emulated`
    for the deterministic dense engine: *parent* holds compact parent
    indices (-1 at roots) and *init_colors* the distinct non-negative
    initial colors (:func:`cv_seeds` of the part roots, matching the
    seed's start).  Every phase applies the exact update rules of
    ``_apply_phase`` -- the shared :func:`cv_schedule` drives both -- so
    the final coloring is identical; the same ledger charge is recorded.
    """
    k = len(parent)
    roots = parent < 0
    safe_parent = np.where(roots, np.arange(k, dtype=np.int64), parent)
    nonroot = ~roots
    colors = init_colors.astype(np.int64)
    one = np.int64(1)

    schedule = cv_schedule(int(colors.max()) if k else 1)
    for phase in schedule:
        pc = colors[safe_parent]
        if phase == "cv":
            own = colors
            effective = np.where(roots, own ^ 1, pc)
            diff = own ^ effective
            low = diff & -diff
            # low is a single set bit, exactly representable in float64,
            # so log2 recovers the bit index without rounding.
            index = np.log2(low.astype(np.float64)).astype(np.int64)
            colors = 2 * index + ((own >> index) & 1)
        elif phase == "shift":
            colors = np.where(roots, np.where(colors != 0, 0, 1), pc)
        else:  # elim{target}
            target = int(phase[4:])
            forbidden = np.zeros(k, dtype=np.int64)
            np.bitwise_or.at(
                forbidden, parent[nonroot], one << colors[nonroot]
            )
            forbidden |= np.where(nonroot, one << pc, 0)
            choice = np.where(
                forbidden & 1 == 0, 0, np.where(forbidden & 2 == 0, 1, 2)
            )
            colors = np.where(colors == target, choice, colors)

    if bool((nonroot & (colors == colors[safe_parent])).any()):
        raise PartitionError("CV produced an improper coloring")
    if bool(((colors < 0) | (colors > 2)).any()):
        raise PartitionError("CV left colors outside {0,1,2}")
    if ledger is not None:
        model = cost_model or TreeCostModel()
        per_round = model.aux_message_relay(height)
        ledger.charge(
            len(schedule) * per_round,
            category,
            f"{len(schedule)} CV super-rounds x {per_round} rounds "
            f"(height {height})",
        )
    return colors, len(schedule)


def mark_and_choose_dense(
    parent: "np.ndarray",
    weight: "np.ndarray",
    colors: "np.ndarray",
) -> MarkingResult:
    """Array port of CHW marking + parity choice on compact indices.

    Applies the exact decision rules of
    :func:`repro.partition.marking.mark_and_choose` (all nodes
    participate -- the deterministic engine's CV coloring never
    abstains): *parent* is the selected out-edge per compact node (-1 if
    none), *weight* the weight of that edge, *colors* a proper
    {0,1,2}-coloring.  The returned :class:`MarkingResult` carries
    compact indices; edge-list order is unspecified (the seed sorts
    by ``repr``) but the edge *sets*, tree heights and weights are
    identical.
    """
    k = len(parent)
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    edge_weight = np.where(has_parent, weight, 0)

    # Incoming weight sums (all children / color-3 children only).
    w_in = np.zeros(k, dtype=np.int64)
    np.add.at(w_in, parent[has_parent], edge_weight[has_parent])
    child_is3 = has_parent & (colors == 2)
    w_in3 = np.zeros(k, dtype=np.int64)
    np.add.at(w_in3, parent[child_is3], edge_weight[child_is3])

    # Per-node "mark my out-edge" decisions (sub-step 2b).
    up1 = (colors == 0) & has_parent & (edge_weight >= w_in)
    up2 = (
        (colors == 1)
        & has_parent
        & (colors[safe_parent] == 2)
        & (edge_weight >= w_in3)
    )
    parent_color = colors[safe_parent]
    down1 = has_parent & (parent_color == 0) & ~up1[safe_parent]
    down2 = (
        child_is3 & (parent_color == 1) & ~up2[safe_parent]
    )
    marked = up1 | up2 | down1 | down2

    marked_idx = np.nonzero(marked)[0].tolist()
    parent_list = parent.tolist()
    weight_list = edge_weight.tolist()
    marked_edges = [(v, parent_list[v]) for v in marked_idx]
    marked_weight = sum(weight_list[v] for v in marked_idx)

    # Parity choice (sub-steps 3-4), per marked tree.
    marked_children: Dict[int, List[int]] = {}
    touched = set()
    for v in marked_idx:
        p = parent_list[v]
        marked_children.setdefault(p, []).append(v)
        touched.add(v)
        touched.add(p)
    marked_out = set(marked_idx)
    roots = [v for v in touched if v not in marked_out]

    level: Dict[int, int] = {}
    tree_root: Dict[int, int] = {}
    tree_heights: Dict[int, int] = {}
    for root in roots:
        depth = 0
        frontier = [root]
        height = 0
        while frontier:
            nxt: List[int] = []
            for v in frontier:
                if v in level:
                    raise PartitionError(
                        "marked subgraph is not a forest (Claim 15)"
                    )
                level[v] = depth
                tree_root[v] = root
                nxt.extend(marked_children.get(v, ()))
            height = depth
            depth += 1
            frontier = nxt
        tree_heights[root] = height
    if len(level) != len(touched):
        raise PartitionError("marked subgraph contains a cycle (Claim 15)")

    parity_weight: Dict[int, List[int]] = {root: [0, 0] for root in roots}
    for v in marked_idx:
        parity_weight[tree_root[parent_list[v]]][level[v] % 2] += weight_list[v]

    contract: List[Tuple[int, int]] = []
    contracted_weight = 0
    for v in marked_idx:
        w0, w1 = parity_weight[tree_root[parent_list[v]]]
        chosen = 0 if w0 >= w1 else 1
        if level[v] % 2 == chosen:
            contract.append((v, parent_list[v]))
            contracted_weight += weight_list[v]

    children = {c for c, _p in contract}
    centers = {p for _c, p in contract}
    overlap = children & centers
    if overlap:
        raise PartitionError(
            f"contraction edges do not form stars; chained nodes: {overlap!r}"
        )
    return MarkingResult(
        marked_edges=marked_edges,
        contract_edges=contract,
        tree_heights=tree_heights,
        marked_weight=marked_weight,
        contracted_weight=contracted_weight,
    )


class DensePartitionState:
    """Flat-array partition bookkeeping over dense node indices.

    Attributes:
        topology: the compiled topology (dense ids, CSR, edge arrays).
        labels: the original-label table, dense index -> node label
            (``topology.nodes``; see :func:`dense_topology`).
        part_of: numpy vector mapping dense index -> root dense index.
        parent: spanning-tree parent per dense index (-1 at roots).
        tree_adj: adjacency lists of the spanning forest; merges only
            ever *add* connector edges, so the forest grows in place.
        heights: root index -> spanning-tree height.
        sizes: root index -> part size.
    """

    def __init__(self, topology: CompiledTopology):
        n = topology.n
        self.topology = topology
        self.labels = topology.nodes
        self.eu, self.ev = topology.edge_arrays()
        self.part_of = np.arange(n, dtype=np.int64)
        self.parent = [-1] * n
        self.tree_adj: List[List[int]] = [[] for _ in range(n)]
        self.heights: Dict[int, int] = dict.fromkeys(range(n), 0)
        self.sizes: Dict[int, int] = dict.fromkeys(range(n), 1)
        self._seen = [0] * n
        self._generation = 0

    @property
    def size(self) -> int:
        """Number of parts."""
        return len(self.heights)

    def max_height(self) -> int:
        return max(self.heights.values(), default=0)

    def cut_size(self) -> int:
        part_of = self.part_of
        return int((part_of[self.eu] != part_of[self.ev]).sum())

    def build_aux(self) -> DenseAuxiliaryGraph:
        return DenseAuxiliaryGraph(
            self.part_of,
            self.eu,
            self.ev,
            self.topology.n,
            roots=self.heights,
        )

    def merge(
        self,
        contract_edges: List[Tuple[int, int]],
        aux: DenseAuxiliaryGraph,
    ) -> None:
        """Contract star edges (child root -> center root) in place.

        Mirrors the seed ``merge_parts``
        (:mod:`repro.partition._differential`): each child's
        tree is glued to its center through the designated connector and
        the merged part is re-rooted at the center by BFS over the
        spanning forest.  Parent pointers and heights of a tree are
        unique regardless of traversal order, so the recomputed tables
        match the seed's ``build_part`` exactly.
        """
        star_children: Dict[int, List[int]] = {}
        absorbed = set()
        for child, center in contract_edges:
            star_children.setdefault(center, []).append(child)
            if child in absorbed:
                raise PartitionError(f"part {child!r} contracted twice")
            absorbed.add(child)
        overlap = absorbed & set(star_children)
        if overlap:
            raise PartitionError(f"contraction is not star-shaped at {overlap!r}")

        n = self.topology.n
        root_map = np.arange(n, dtype=np.int64)
        tree_adj = self.tree_adj
        for child, center in contract_edges:
            root_map[child] = center
            u, v = aux.connector(child, center)
            tree_adj[u].append(v)
            tree_adj[v].append(u)
        self.part_of = root_map[self.part_of]

        parent = self.parent
        seen = self._seen
        for center, children in star_children.items():
            expected = self.sizes[center] + sum(
                self.sizes[c] for c in children
            )
            self._generation += 1
            generation = self._generation
            seen[center] = generation
            parent[center] = -1
            height = -1
            reached = 0
            frontier = [center]
            while frontier:
                height += 1
                reached += len(frontier)
                nxt: List[int] = []
                for v in frontier:
                    for w in tree_adj[v]:
                        if seen[w] != generation:
                            seen[w] = generation
                            parent[w] = v
                            nxt.append(w)
                frontier = nxt
            if reached != expected:
                raise PartitionError(
                    f"spanning tree of part rooted at {center!r} does not "
                    f"reach {expected - reached} nodes"
                )
            self.sizes[center] = expected
            self.heights[center] = height
            for child in children:
                del self.sizes[child]
                del self.heights[child]

    def to_partition(self, graph: nx.Graph) -> Partition:
        """Materialize the dense state as a :class:`Partition` (original labels)."""
        ids = self.labels
        parent = self.parent
        members: Dict[int, List[int]] = {root: [] for root in self.heights}
        for idx, root in enumerate(self.part_of.tolist()):
            members[root].append(idx)
        parts = []
        for root, group in members.items():
            parents = {
                ids[idx]: ids[parent[idx]] for idx in group if parent[idx] >= 0
            }
            parts.append(
                Part(
                    root=ids[root],
                    nodes=frozenset(ids[idx] for idx in group),
                    parents=parents,
                    height=self.heights[root],
                )
            )
        return Partition(graph, parts)
