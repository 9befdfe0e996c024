"""Corollary 16: testing cycle-freeness and bipartiteness on minor-free
graphs.

Both testers first partition the graph (deterministically per Theorem 3,
or randomized per Theorem 4) with the edge-cut target set below
``epsilon * m``, then verify the property inside every part with a BFS
tree:

* cycle-freeness: any non-tree edge closes a cycle;
* bipartiteness: any non-tree edge joining equal BFS parities closes an
  odd cycle.

Soundness: when G is epsilon-far from the property, removing the
<= ``epsilon m / 2`` cut edges cannot make it close, so some part still
violates the property, and the BFS check finds a witness
deterministically.  Completeness is immediate (the checks only fire on
genuine witnesses), so the deterministic variant errs on *no* input
satisfying the minor-free promise, and the randomized variant fails only
when the partition misses its cut target (probability <= delta).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import networkx as nx
import numpy as np

from ..congest.ledger import TreeCostModel
from ..graphs.utils import require_simple
from ..partition.stage1 import Stage1Result, partition_stage1
from ..partition.weighted_selection import partition_randomized
from .results import ApplicationTestResult


def _partition_for_application(
    graph: nx.Graph,
    epsilon: float,
    alpha: int,
    method: str,
    delta: float,
    seed: Optional[int],
) -> Stage1Result:
    target = epsilon * graph.number_of_edges() / 2
    if method == "deterministic":
        return partition_stage1(
            graph, epsilon=epsilon, alpha=alpha, target_cut=target
        )
    if method == "randomized":
        return partition_randomized(
            graph,
            epsilon=epsilon,
            delta=delta,
            alpha=alpha,
            target_cut=target,
            seed=seed,
        )
    raise ValueError(f"unknown method {method!r}")


def _verify_parts(stage1: Stage1Result, check: str) -> Tuple[List[Any], int]:
    """The per-part BFS verification on the dense partition state.

    One multi-source BFS from every part root over the intra-part edge
    arrays replaces a per-part ``graph.subgraph`` + BFS walk, and the
    non-tree / parity predicates evaluate vectorized over all intra-part
    edges at once.  Dense indices follow ``id_key`` order, so the
    min-index parent at depth ``d - 1`` is exactly
    ``deterministic_bfs_tree``'s min-``id_key`` parent, and the
    per-part verdicts -- hence the rejecting root set and the round
    maximum -- match the seed walk (``repro.partition._differential``)
    bit for bit.
    """
    state = stage1.dense_state
    n = state.topology.n
    part_of = state.part_of
    intra = part_of[state.eu] == part_of[state.ev]
    ieu = state.eu[intra]
    iev = state.ev[intra]

    roots = np.fromiter(
        state.heights.keys(), dtype=np.int64, count=len(state.heights)
    )
    depth = np.full(n, -1, dtype=np.int64)
    depth[roots] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[roots] = True
    level = 0
    while True:
        level += 1
        hit = np.zeros(n, dtype=bool)
        hit[iev[frontier[ieu]]] = True
        hit[ieu[frontier[iev]]] = True
        new = hit & (depth < 0)
        if not new.any():
            break
        depth[new] = level
        frontier = new

    model = TreeCostModel()
    max_rounds = (int(depth.max()) + 1) + model.neighbor_exchange()

    # BFS parent per non-root node: minimum intra-part neighbor one
    # level up (min dense index == min id_key).
    parent = np.full(n, n, dtype=np.int64)
    du = depth[ieu]
    dv = depth[iev]
    up = dv == du + 1
    np.minimum.at(parent, iev[up], ieu[up])
    down = du == dv + 1
    np.minimum.at(parent, ieu[down], iev[down])

    nontree = (parent[iev] != ieu) & (parent[ieu] != iev)
    if check == "cycle":
        bad = nontree
    else:
        bad = nontree & (du % 2 == dv % 2)
    rejecting_roots = np.unique(part_of[ieu[bad]])
    return [state.labels[r] for r in rejecting_roots.tolist()], max_rounds


def _run_application(
    graph: nx.Graph,
    epsilon: float,
    check: str,
    alpha: int,
    method: str,
    delta: float,
    seed: Optional[int],
) -> ApplicationTestResult:
    require_simple(graph)
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    stage1 = _partition_for_application(
        graph, epsilon, alpha, method, delta, seed
    )
    rejecting, verify_rounds = _verify_parts(stage1, check)
    return ApplicationTestResult(
        accepted=not rejecting,
        rejecting_parts=tuple(sorted(rejecting, key=repr)),
        partition_result=stage1,
        partition_rounds=stage1.rounds,
        verification_rounds=verify_rounds,
    )


def test_cycle_freeness(
    graph: nx.Graph,
    epsilon: float = 0.1,
    alpha: int = 3,
    method: str = "deterministic",
    delta: float = 0.1,
    seed: Optional[int] = None,
) -> ApplicationTestResult:
    """Corollary 16 cycle-freeness tester (minor-free promise).

    Deterministic method: ``O(poly(1/eps) log n)`` rounds, never errs on
    promise-satisfying inputs.  Randomized method: ``O(poly(1/eps)
    (log 1/delta + log* n))`` rounds, success probability >= 1 - delta.
    """
    return _run_application(
        graph, epsilon, "cycle", alpha, method, delta, seed
    )


def test_bipartiteness(
    graph: nx.Graph,
    epsilon: float = 0.1,
    alpha: int = 3,
    method: str = "deterministic",
    delta: float = 0.1,
    seed: Optional[int] = None,
) -> ApplicationTestResult:
    """Corollary 16 bipartiteness tester (minor-free promise)."""
    return _run_application(
        graph, epsilon, "bipartite", alpha, method, delta, seed
    )
