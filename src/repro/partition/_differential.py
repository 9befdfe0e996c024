"""Differential-testing fixtures: the seed dict partition engine.

The partition ships one engine -- the CSR-native phase loop of
:mod:`repro.partition.dense`, behind :func:`repro.partition.stage1.
partition_stage1` and :func:`repro.partition.weighted_selection.
partition_randomized` -- but the dict-keyed engine it replaced remains
the semantic reference the differential suites and benchmarks E16/E19
compare it against.  Nothing outside ``tests/`` and ``benchmarks/``
imports this module.

Kept from the seed implementation (modulo shortened docstrings):

* the Stage I and Theorem 4 phase loops over :class:`Partition` /
  :class:`AuxiliaryGraph` objects, with ``select_heaviest_out_edges``,
  ``merge_parts`` and the ``rng.choices`` weighted-edge selection;
* the Corollary 17 spanner walk over ``Partition`` objects and the
  per-source networkx stretch fold;
* the Corollary 16 per-part ``graph.subgraph`` + BFS verification.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

import networkx as nx

from ..congest.ledger import RoundLedger, TreeCostModel
from ..errors import GraphInputError, PartitionError
from ..graphs.utils import id_key, require_simple
from .auxiliary import AuxiliaryGraph
from .coloring import cole_vishkin_emulated
from .forest_decomposition import forest_decomposition_emulated
from .marking import mark_and_choose
from .parts import Partition, build_part
from .stage1 import (
    PhaseStats,
    Stage1Result,
    _charge_merging_overhead,
    theoretical_phase_cap,
)
from .weighted_selection import (
    RandomizedPartitionResult,
    _color_pseudoforest,
    default_trials,
    randomized_phase_cap,
)

# -- Stage I -------------------------------------------------------------------


def select_heaviest_out_edges(
    aux: AuxiliaryGraph, out_edges: Dict[Any, List[Any]]
) -> Tuple[Dict[Any, Optional[Any]], Dict[Tuple[Any, Any], int]]:
    """Sub-step 1: each part selects its heaviest out-edge (ties: id order)."""
    selected: Dict[Any, Optional[Any]] = {}
    weights: Dict[Tuple[Any, Any], int] = {}
    for pid in aux.nodes():
        best: Optional[Any] = None
        best_weight = -1
        for nbr in out_edges.get(pid, ()):
            w = aux.weight(pid, nbr)
            if w > best_weight or (
                w == best_weight and (best is None or id_key(nbr) < id_key(best))
            ):
                best, best_weight = nbr, w
        selected[pid] = best
        if best is not None:
            weights[(pid, best)] = best_weight
    return selected, weights


def merge_parts(
    partition: Partition,
    aux: AuxiliaryGraph,
    contract_edges: List[Tuple[Any, Any]],
) -> Partition:
    """Sub-step 4: contract star edges, gluing spanning trees via connectors."""
    star_children: Dict[Any, List[Any]] = {}
    absorbed = set()
    for child, center in contract_edges:
        star_children.setdefault(center, []).append(child)
        if child in absorbed:
            raise PartitionError(f"part {child!r} contracted twice")
        absorbed.add(child)
    overlap = absorbed & set(star_children)
    if overlap:
        raise PartitionError(f"contraction is not star-shaped at {overlap!r}")

    new_parts = []
    for pid, part in partition.parts.items():
        if pid in absorbed:
            continue
        children = star_children.get(pid, ())
        if not children:
            new_parts.append(part)
            continue
        nodes = set(part.nodes)
        tree_edges = list(part.tree_edges())
        for child_pid in children:
            child = partition.parts[child_pid]
            nodes.update(child.nodes)
            tree_edges.extend(child.tree_edges())
            u, v = aux.connector(child_pid, pid)
            tree_edges.append((u, v))
        new_parts.append(build_part(part.root, nodes, tree_edges))
    return Partition(partition.graph, new_parts)


def partition_stage1(
    graph: nx.Graph,
    epsilon: float,
    alpha: int = 3,
    target_cut: Optional[float] = None,
    max_phases: Optional[int] = None,
    early_stop: bool = True,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    charge_full_budget: bool = True,
) -> Stage1Result:
    """The seed dict-engine Stage I (same signature as the shipped one)."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    m = graph.number_of_edges()
    if target_cut is None:
        target_cut = epsilon * m / 2
    ledger = ledger if ledger is not None else RoundLedger()
    model = cost_model or TreeCostModel()
    cap = theoretical_phase_cap(m, target_cut, alpha)
    if max_phases is None:
        max_phases = cap

    partition = Partition.singletons(graph)
    phases: List[PhaseStats] = []
    cut = m  # singletons: every edge is a cut edge

    for phase_index in range(1, max_phases + 1):
        if cut == 0 or (early_stop and cut <= target_cut):
            break
        aux = AuxiliaryGraph(partition)
        height = partition.max_height()

        fd = forest_decomposition_emulated(
            aux,
            alpha,
            ledger=ledger,
            cost_model=model,
            charge_full_budget=charge_full_budget,
        )
        if not fd.success:
            return Stage1Result(
                partition=partition,
                success=False,
                rejecting_parts=fd.rejecting_parts,
                phases=phases,
                ledger=ledger,
                target_cut=target_cut,
                theoretical_phase_cap=cap,
            )

        out_edge, weights = select_heaviest_out_edges(aux, fd.out_edges)
        colors, cv_rounds = cole_vishkin_emulated(
            out_edge, ledger=ledger, cost_model=model, height=height
        )
        marking = mark_and_choose(out_edge, weights, colors)
        _charge_merging_overhead(ledger, model, height, marking)

        new_partition = merge_parts(partition, aux, marking.contract_edges)
        new_cut = new_partition.cut_size()
        phases.append(
            PhaseStats(
                phase=phase_index,
                parts_before=partition.size,
                parts_after=new_partition.size,
                cut_before=cut,
                cut_after=new_cut,
                max_height_before=height,
                max_height_after=new_partition.max_height(),
                fd_super_rounds=fd.super_rounds,
                cv_super_rounds=cv_rounds,
                max_marked_tree_height=max(
                    marking.tree_heights.values(), default=0
                ),
                marked_weight=marking.marked_weight,
                contracted_weight=marking.contracted_weight,
            )
        )
        if new_cut >= cut and cut > 0:
            raise PartitionError(
                f"phase {phase_index} made no progress (cut {cut} -> {new_cut})"
            )
        partition, cut = new_partition, new_cut

    return Stage1Result(
        partition=partition,
        success=True,
        rejecting_parts=(),
        phases=phases,
        ledger=ledger,
        target_cut=target_cut,
        theoretical_phase_cap=cap,
    )


# -- Theorem 4 -----------------------------------------------------------------


def weighted_edge_selection(
    aux: AuxiliaryGraph,
    trials: int,
    rng: random.Random,
) -> Tuple[Dict[Any, Optional[Any]], Dict[Tuple[Any, Any], int]]:
    """Each part draws incident edges ~ weight, keeps the heaviest of s draws."""
    drawn: Dict[Any, Optional[Any]] = {}
    for pid in sorted(aux.nodes(), key=id_key):
        nbrs = aux.neighbors(pid)
        if not nbrs:
            drawn[pid] = None
            continue
        targets = sorted(nbrs, key=id_key)
        weights = [nbrs[t] for t in targets]
        best: Optional[Any] = None
        best_weight = -1
        for _ in range(trials):
            choice = rng.choices(targets, weights=weights, k=1)[0]
            w = nbrs[choice]
            if w > best_weight or (
                w == best_weight and (best is None or id_key(choice) < id_key(best))
            ):
                best, best_weight = choice, w
        drawn[pid] = best

    # Resolve double selections: the edge becomes the out-edge of the
    # smaller id; the larger endpoint is left without an out-edge.
    out_edge: Dict[Any, Optional[Any]] = dict(drawn)
    for pid, target in drawn.items():
        if target is None:
            continue
        if drawn.get(target) == pid and id_key(target) < id_key(pid):
            out_edge[pid] = None
    weights_out: Dict[Tuple[Any, Any], int] = {}
    for pid, target in out_edge.items():
        if target is not None:
            weights_out[(pid, target)] = aux.weight(pid, target)
    return out_edge, weights_out


def partition_randomized(
    graph: nx.Graph,
    epsilon: float,
    delta: float = 0.1,
    alpha: int = 3,
    target_cut: Optional[float] = None,
    trials: Optional[int] = None,
    max_phases: Optional[int] = None,
    early_stop: bool = True,
    seed: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
    cost_model: Optional[TreeCostModel] = None,
    coloring: str = "cole-vishkin",
    coloring_rounds: Optional[int] = None,
) -> RandomizedPartitionResult:
    """The seed dict-engine Theorem 4 partition (shipped signature)."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    m = graph.number_of_edges()
    n = graph.number_of_nodes()
    if target_cut is None:
        target_cut = epsilon * n
    cap = randomized_phase_cap(m, target_cut, alpha)
    if max_phases is None:
        max_phases = cap
    if trials is None:
        trials = default_trials(delta, cap or 1)
    rng = random.Random(seed)
    ledger = ledger if ledger is not None else RoundLedger()
    model = cost_model or TreeCostModel()

    partition = Partition.singletons(graph)
    phases: List[PhaseStats] = []
    cut = m

    for phase_index in range(1, max_phases + 1):
        if cut == 0 or (early_stop and cut <= target_cut):
            break
        aux = AuxiliaryGraph(partition)
        height = partition.max_height()

        out_edge, weights = weighted_edge_selection(aux, trials, rng)
        ledger.charge(
            trials * (model.convergecast(height) + 1) + 1,
            "randomized.selection",
            f"{trials} weighted draws over trees of height {height}",
        )
        colors, cv_rounds = _color_pseudoforest(
            out_edge,
            coloring,
            coloring_rounds,
            cap,
            delta,
            rng,
            ledger,
            model,
            height,
        )
        marking = mark_and_choose(out_edge, weights, colors)
        _charge_merging_overhead(ledger, model, height, marking)

        if not marking.contract_edges:
            phases.append(
                PhaseStats(
                    phase=phase_index,
                    parts_before=partition.size,
                    parts_after=partition.size,
                    cut_before=cut,
                    cut_after=cut,
                    max_height_before=height,
                    max_height_after=height,
                    fd_super_rounds=0,
                    cv_super_rounds=cv_rounds,
                    max_marked_tree_height=0,
                    marked_weight=marking.marked_weight,
                    contracted_weight=0,
                )
            )
            continue

        new_partition = merge_parts(partition, aux, marking.contract_edges)
        new_cut = new_partition.cut_size()
        phases.append(
            PhaseStats(
                phase=phase_index,
                parts_before=partition.size,
                parts_after=new_partition.size,
                cut_before=cut,
                cut_after=new_cut,
                max_height_before=height,
                max_height_after=new_partition.max_height(),
                fd_super_rounds=0,
                cv_super_rounds=cv_rounds,
                max_marked_tree_height=max(
                    marking.tree_heights.values(), default=0
                ),
                marked_weight=marking.marked_weight,
                contracted_weight=marking.contracted_weight,
            )
        )
        if new_cut >= cut:
            raise PartitionError(
                f"phase {phase_index} made no progress (cut {cut} -> {new_cut})"
            )
        partition, cut = new_partition, new_cut

    return RandomizedPartitionResult(
        partition=partition,
        success=True,
        rejecting_parts=(),
        phases=phases,
        ledger=ledger,
        target_cut=target_cut,
        theoretical_phase_cap=cap,
        trials=trials,
        delta=delta,
    )


def _partition(graph, epsilon, alpha, target, method, delta, seed):
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


# -- Corollary 17 --------------------------------------------------------------


def build_spanner(
    graph: nx.Graph,
    epsilon: float = 0.1,
    method: str = "deterministic",
    delta: float = 0.1,
    alpha: int = 3,
    seed: Optional[int] = None,
):
    """The seed Corollary 17 spanner walk over ``Partition`` objects."""
    from ..applications.spanner import SpannerResult

    require_simple(graph, "build_spanner input")
    n = graph.number_of_nodes()
    if n == 0:
        raise GraphInputError("build_spanner requires at least one node")
    result = _partition(graph, epsilon, alpha, epsilon * n, method, delta, seed)

    spanner = nx.Graph()
    spanner.add_nodes_from(graph.nodes())
    tree_edges = 0
    for part in result.partition.parts.values():
        for child, parent in part.tree_edges():
            spanner.add_edge(child, parent)
            tree_edges += 1

    aux = AuxiliaryGraph(result.partition)
    connector_edges = 0
    for edge in aux.edges():
        u, v = edge.connector
        if not spanner.has_edge(u, v):
            spanner.add_edge(u, v)
            connector_edges += 1

    max_height = result.partition.max_height()
    return SpannerResult(
        partition_result=result,
        tree_edges=tree_edges,
        connector_edges=connector_edges,
        guaranteed_stretch=4 * max_height + 1,
        _graph=spanner,
    )


def measure_stretch(
    graph: nx.Graph,
    spanner: nx.Graph,
    sample_nodes: int = 16,
    seed: Optional[int] = None,
) -> float:
    """The seed per-source networkx stretch fold."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes(), key=repr)
    if sample_nodes < len(nodes):
        sources = rng.sample(nodes, sample_nodes)
    else:
        sources = nodes
    if not isinstance(spanner, nx.Graph):
        spanner = spanner.to_graph()
    worst = 1.0
    for source in sources:
        d_g = nx.single_source_shortest_path_length(graph, source)
        d_s = nx.single_source_shortest_path_length(spanner, source)
        for v, dg in d_g.items():
            if dg == 0:
                continue
            ds = d_s.get(v)
            if ds is None:
                raise GraphInputError("spanner does not span the graph")
            worst = max(worst, ds / dg)
    return worst


# -- Corollary 16 --------------------------------------------------------------


def _verify_parts(
    graph: nx.Graph,
    stage1: Stage1Result,
    check: str,
) -> Tuple[List[Any], int]:
    """BFS verification in every part; returns (rejecting pids, max rounds)."""
    from ..testers.labels import deterministic_bfs_tree

    model = TreeCostModel()
    rejecting: List[Any] = []
    max_rounds = 0
    for pid, part in stage1.partition.parts.items():
        sub = graph.subgraph(part.nodes)
        parents, depths = deterministic_bfs_tree(sub, part.root)
        depth = max(depths.values(), default=0)
        rounds = (depth + 1) + model.neighbor_exchange()
        max_rounds = max(max_rounds, rounds)
        bad = False
        for u, v in sub.edges():
            if parents.get(u) == v or parents.get(v) == u:
                continue
            if check == "cycle":
                bad = True
                break
            if check == "bipartite" and depths[u] % 2 == depths[v] % 2:
                bad = True
                break
        if bad:
            rejecting.append(pid)
    return rejecting, max_rounds


def run_application(
    graph: nx.Graph,
    epsilon: float = 0.1,
    check: str = "cycle",
    alpha: int = 3,
    method: str = "deterministic",
    delta: float = 0.1,
    seed: Optional[int] = None,
):
    """The seed Corollary 16 tester (``check`` = cycle / bipartite)."""
    from ..testers.results import ApplicationTestResult

    require_simple(graph)
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    target = epsilon * graph.number_of_edges() / 2
    stage1 = _partition(graph, epsilon, alpha, target, method, delta, seed)
    rejecting, verify_rounds = _verify_parts(graph, stage1, check)
    return ApplicationTestResult(
        accepted=not rejecting,
        rejecting_parts=tuple(sorted(rejecting, key=repr)),
        partition_result=stage1,
        partition_rounds=stage1.rounds,
        verification_rounds=verify_rounds,
    )
