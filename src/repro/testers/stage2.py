"""Stage II: per-part planarity verification (paper Section 2.2).

For each part ``G_j`` of the Stage I partition (all parts run in
parallel; the stage's round cost is the maximum over parts):

1. build the BFS tree ``T_B^j`` and aggregate ``n(G_j)``, ``m(G_j)``
   (Section 2.2.1 preprocessing);
2. reject when ``m > 3n - 6`` (Euler density check);
3. compute a combinatorial embedding with the embedding subroutine
   (Ghaffari-Haeupler in the paper; this library's LR implementation
   here -- see DESIGN.md substitution 1).  On non-planar parts, where GH
   may emit an arbitrary ordering, use the id-sorted fallback rotation;
4. derive the lexicographic labels / preorder ranks;
5. sample ``s = Theta(log n / epsilon)`` non-tree edges and reject when
   any sampled edge interlaces another non-tree edge (Definition 7).

Round accounting per part (charged to the ledger, category "stage2.*"):
BFS costs ``depth + 1``; the counts convergecast/broadcast ``2 depth + 2``;
the embedding ``D + min(ceil(log2 n_j), D)`` with ``D <= 2 depth`` (the GH
bound); label distribution pipelines ``depth`` words down the tree
(``2 depth``); the sample gather/broadcast pipelines ``s`` edge labels of
``<= 2 depth`` words (``depth + 2 s depth``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import networkx as nx

from ..congest.ledger import RoundLedger, TreeCostModel
from ..partition.parts import Part
# Stage II's LR entry.  It keeps the ``check_planarity`` name so that
# hooks installed on ``repro.testers.stage2.check_planarity`` (perfbench's
# ``planarity.lr`` span) see every embedding call.
from ..planarity.lr_planarity import lr_rotations as check_planarity
from ..telemetry import get_tracer
from .labels import (
    bfs_tree_int,
    corner_intervals_int,
    euler_positions_int,
    id_keys,
    preorder_ranks_int,
    rank_intervals_int,
)
from .results import PartVerdict
from .violations import sample_and_detect, violating_mask


@dataclass
class Stage2Config:
    """Knobs for Stage II.

    Attributes:
        epsilon: distance parameter (detection threshold is epsilon/2
            per part, per Claim 3).
        sample_constant: c in ``s = ceil(c * log2(n) / epsilon)``.
        criterion: which interlacement criterion defines "violating":

            * ``"corner"`` (default): non-tree edges as chords of the
              tree-complement disk, positioned at their Euler-tour
              corners.  Sound *and* complete: a planar embedding has no
              violating edge, and a violating-edge-free part is planar.
            * ``"preorder"``: the paper's literal Definition 7 labels
              (first-visit preorder ranks).  Sound (Claim 8 holds) but
              NOT complete: planar parts can exhibit interlacements
              (counterexample: the 3x3 grid; see tests), which would
              break one-sided error.  Provided for comparison/benchmarks.
        reject_on_embedding_failure: treat an embedding-subroutine
            failure as rejection evidence.  Off by default: the paper's
            GH subroutine may emit an ordering even on non-planar parts,
            and we exercise the sampling machinery rather than leak the
            LR oracle's verdict (DESIGN.md substitution 1).
        collect_exact_violations: also compute the exact violating-edge
            count per part (analysis only; used by benchmark E13).
    """

    epsilon: float = 0.1
    sample_constant: float = 2.0
    criterion: str = "corner"
    reject_on_embedding_failure: bool = False
    collect_exact_violations: bool = False


class PartGraph:
    """One part's induced subgraph on int ids.

    ``nodes[i]`` is the label of node ``i``, ``index`` inverts it, and
    ``adj[i]`` lists the neighbor ids of ``i``; ``m`` counts edges.
    Node ids follow the iteration order of ``graph.subgraph(nodes)``
    and every row keeps the parent graph's adjacency order, so each
    order-sensitive step (BFS, LR, the Euler tour, edge enumeration)
    sees the sequence the subgraph view would give it.
    """

    __slots__ = ("nodes", "index", "adj", "m")

    def __init__(self, graph: nx.Graph, nodes) -> None:
        parent_adj = graph._adj
        # The view's node order: networkx iterates its member set when
        # that is under half the graph, else the graph's node order.
        order = list(graph.subgraph(nodes))
        index: Dict[Any, int] = {v: i for i, v in enumerate(order)}
        adj: List[List[int]] = [
            [index[w] for w in parent_adj[v] if w in index] for v in order
        ]
        self.nodes = order
        self.index = index
        self.adj = adj
        self.m = sum(map(len, adj)) // 2


def extract_part_subgraphs(graph: nx.Graph, partition) -> Dict[Any, PartGraph]:
    """Every part's induced subgraph as a :class:`PartGraph`.

    One pass over each part's rows of the parent adjacency; every later
    Stage II step (BFS, LR, the Euler tour, edge enumeration) then runs
    on int lists instead of filtering the parent graph on each access.

    Returns a mapping ``pid -> PartGraph``.
    """
    return {
        pid: PartGraph(graph, part.nodes)
        for pid, part in partition.parts.items()
    }


def sample_size(n_total: int, config: Stage2Config) -> int:
    """The paper's ``s = Theta(log n / epsilon)`` with n = |V(G)|."""
    return max(
        1,
        int(
            math.ceil(
                config.sample_constant * math.log2(max(n_total, 2)) / config.epsilon
            )
        ),
    )


def test_part(
    graph: nx.Graph,
    part: Part,
    n_total: int,
    rng: random.Random,
    config: Stage2Config,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    subgraph: Optional[PartGraph] = None,
) -> PartVerdict:
    """Run Stage II on one part; return its verdict.

    *graph* is the full graph; the part's induced subgraph is examined.
    *subgraph* may supply it pre-extracted (see
    :func:`extract_part_subgraphs`).  With telemetry on, the embedding,
    label and sampling steps open ``stage2.embed``, ``stage2.labels``
    and ``stage2.sample`` spans whose ``rounds`` attribute is the
    ledger charge made inside them.
    """
    model = cost_model or TreeCostModel()
    local = RoundLedger()
    sub = PartGraph(graph, part.nodes) if subgraph is None else subgraph
    adj = sub.adj
    n, m = len(adj), sub.m
    root = sub.index[part.root]
    tracer = get_tracer()

    # 1. BFS tree + counts (Section 2.2.1).
    parent, depths, _order = bfs_tree_int(adj, root, id_keys(sub.nodes))
    depth = max(depths, default=0)
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
    with tracer.span("stage2.embed", pid=part.pid) as span:
        diameter_bound = max(1, 2 * depth)
        span.set(
            rounds=local.charge(
                diameter_bound
                + min(math.ceil(math.log2(max(n, 2))), diameter_bound),
                "stage2.embedding",
                f"planar embedding, D<={diameter_bound} (Ghaffari-Haeupler bound)",
            )
        )
        rotation = check_planarity(adj)
        embedding_planar = rotation is not None
        if not embedding_planar:
            if config.reject_on_embedding_failure:
                return verdict(False, "embedding", False, 0, None)
            # The id-sorted fallback of ``identity_rotation``.
            keys = [repr(v) for v in sub.nodes]
            rotation = [sorted(row, key=keys.__getitem__) for row in adj]

    # 4. Labels: corner positions on the tree's Euler tour (default) or
    # the paper-literal preorder ranks.
    with tracer.span("stage2.labels", pid=part.pid) as span:
        if config.criterion == "corner":
            positions, universe = euler_positions_int(rotation, root, parent)
            found = corner_intervals_int(adj, parent, positions)
        elif config.criterion == "preorder":
            ranks = preorder_ranks_int(rotation, root, parent)
            found = rank_intervals_int(adj, parent, ranks)
            universe = n
        else:
            raise ValueError(f"unknown criterion {config.criterion!r}")
        label_words = depth  # a label holds one edge label per tree level
        span.set(
            rounds=local.charge(
                model.broadcast(depth, max(1, label_words)),
                "stage2.labels",
                f"distribute labels of <= {label_words} words",
            )
        )
    intervals = [(a, b) for a, b, _u, _v in found]

    # 5. Sampling-based detection.
    with tracer.span("stage2.sample", pid=part.pid) as span:
        mask = (
            violating_mask(intervals, universe=universe)
            if config.collect_exact_violations
            else None
        )
        violating = sum(mask) if mask is not None else None
        s = sample_size(n_total, config)
        outcome = sample_and_detect(
            intervals, s, rng, universe=universe, mask=mask
        )
        label_cost = max(1, 2 * label_words)
        span.set(
            rounds=local.charge(
                model.convergecast(depth, max(1, outcome.sampled))
                + model.broadcast(depth, max(1, outcome.sampled * label_cost)),
                "stage2.sampling",
                f"gather + broadcast {outcome.sampled} sampled edge labels",
            )
        )
    if outcome.detected:
        return verdict(False, "violation", embedding_planar, outcome.sampled, violating)
    return verdict(True, None, embedding_planar, outcome.sampled, violating)
