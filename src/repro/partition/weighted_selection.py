"""Theorem 4: the randomized partition for minor-free graphs.

Under a minor-free promise the arboricity of every auxiliary graph is
bounded by a constant, so the forest-decomposition verification step can
be dropped.  Instead of the heaviest out-edge of an orientation, every
auxiliary node draws an incident edge with probability proportional to
its weight, repeats ``s = Theta(log 1/delta)`` times, and keeps the
heaviest draw (the *weighted-edge selection*, paper Section 4).  Lemma 13
shows the selected pseudoforest retains a ``1/(16*alpha)`` weight
fraction with probability ``1 - delta``; the merging machinery
(Cole-Vishkin + CHW marking, which tolerates pseudoforest cycles by
Claim 15) then contracts as in Stage I, giving Claim 14's per-phase decay
of ``1 - 1/(64*alpha)``.

Round cost: each draw is emulated by a uniform-edge-selection
convergecast over part trees (Section 4.1), so a phase costs
``O(poly(1/eps) * (log(1/delta) + log* n))`` rounds -- no ``log n`` term.

Like Stage I, the phase loop runs on the CSR-native dense state for any
hashable labels (:func:`~repro.partition.dense.dense_topology`); the
seed dict loop survives only as the test oracle
:mod:`repro.partition._differential`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

import networkx as nx

from ..congest.ledger import RoundLedger, TreeCostModel
from ..errors import PartitionError
from .coloring import cole_vishkin_emulated, randomized_coloring_emulated
from .dense import (
    DensePartitionState,
    cv_seeds,
    dense_topology,
    weighted_selection_dense,
)
from .marking import mark_and_choose
from .stage1 import PhaseStats, Stage1Result, _charge_merging_overhead


def default_trials(delta: float, phase_budget: int) -> int:
    """Number of selection trials per phase: ``Theta(log(phases / delta))``.

    The per-phase failure budget is ``delta / phase_budget`` (union bound
    over phases); the constant in front of the logarithm is 1 here --
    Lemma 13's provable constant is ``16*alpha - 1`` but the selection is
    far better in practice, and benchmark E6 measures the realized
    success probability directly.
    """
    per_phase = max(delta / max(phase_budget, 1), 1e-9)
    return max(1, int(math.ceil(math.log2(1.0 / per_phase))))


def randomized_phase_cap(m: int, target_cut: float, alpha: int) -> int:
    """A-priori phase bound using Claim 14's decay ``1 - 1/(64*alpha)``."""
    if m == 0 or target_cut >= m:
        return 0
    decay = 1.0 - 1.0 / (64 * alpha)
    return int(math.ceil(math.log(max(target_cut, 0.5) / m) / math.log(decay)))


@dataclass
class RandomizedPartitionResult(Stage1Result):
    """Stage1Result plus the randomized-variant parameters."""

    trials: int = 0
    delta: float = 0.0

    @property
    def met_target(self) -> bool:
        """Whether the cut target was reached within the phase cap."""
        return self.partition.cut_size() <= self.target_cut


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
    """Theorem 4 partition: ``O(poly(1/eps)(log 1/delta + log* n))`` rounds.

    Args:
        graph: the input graph; quality guarantees assume it is
            minor-free with arboricity <= alpha (the promise).  On other
            inputs the algorithm still terminates but may miss the target.
        epsilon: edge-cut parameter; default target ``epsilon * n`` per
            Theorem 4 ("the total number of edges between parts is at
            most epsilon n").
        delta: confidence parameter.
        alpha: arboricity bound of the promised family (3 for planar).
        trials: selection repetitions per phase; default
            ``Theta(log(phases / delta))``.
        coloring: ``"cole-vishkin"`` (default; O(log* n) super-rounds) or
            ``"randomized"`` -- Remark 1's trade-off: a fixed
            *coloring_rounds* budget with abstention, removing the
            dependence on n entirely at the cost of the (exponentially
            small) abstention fraction slowing the decay.
        coloring_rounds: budget for the randomized coloring; defaults to
            ``ceil(log2(phases/delta)) + 2``.
        max_phases / early_stop / seed / ledger / cost_model: as Stage I.
    """
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

    state = DensePartitionState(dense_topology(graph))
    labels = state.labels
    phases: List[PhaseStats] = []
    cut = m

    for phase_index in range(1, max_phases + 1):
        if cut == 0 or (early_stop and cut <= target_cut):
            break
        aux = state.build_aux()
        height = state.max_height()

        # Vectorized selection: pre-draws the rng.random() sequence the
        # seed loop consumes (parts in root order, trials inner) and
        # replicates random.choices's arithmetic bit for bit.
        out_edge, weights = weighted_selection_dense(aux, trials, rng)
        # Section 4.1: each of the s draws is one uniform-edge-selection
        # convergecast (+1 boundary round to learn neighboring roots).
        ledger.charge(
            trials * (model.convergecast(height) + 1) + 1,
            "randomized.selection",
            f"{trials} weighted draws over trees of height {height}",
        )
        initial_colors = None
        if coloring == "cole-vishkin":
            initial_colors = dict(
                zip(out_edge, cv_seeds([labels[pid] for pid in out_edge]))
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
            initial_colors=initial_colors,
        )
        marking = mark_and_choose(out_edge, weights, colors)
        _charge_merging_overhead(ledger, model, height, marking)

        parts_before = state.size
        if not marking.contract_edges:
            # Possible only under randomized coloring when every decision
            # abstained (exponentially unlikely); the phase made no
            # progress -- retry with fresh randomness.
            phases.append(
                PhaseStats(
                    phase=phase_index,
                    parts_before=parts_before,
                    parts_after=parts_before,
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

        state.merge(marking.contract_edges, aux)
        new_cut = state.cut_size()
        phases.append(
            PhaseStats(
                phase=phase_index,
                parts_before=parts_before,
                parts_after=state.size,
                cut_before=cut,
                cut_after=new_cut,
                max_height_before=height,
                max_height_after=state.max_height(),
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
            # Cannot happen: every marked tree contracts its heavier
            # parity class, which has positive weight (see marking.py).
            raise PartitionError(
                f"phase {phase_index} made no progress (cut {cut} -> {new_cut})"
            )
        cut = new_cut

    return RandomizedPartitionResult(
        partition=state.to_partition(graph),
        success=True,
        rejecting_parts=(),
        phases=phases,
        ledger=ledger,
        target_cut=target_cut,
        theoretical_phase_cap=cap,
        dense_state=state,
        trials=trials,
        delta=delta,
    )


def _color_pseudoforest(
    out_edge,
    coloring: str,
    coloring_rounds: Optional[int],
    cap: int,
    delta: float,
    rng: random.Random,
    ledger: RoundLedger,
    model: TreeCostModel,
    height: int,
    initial_colors=None,
):
    """Sub-step 2a: CV or randomized coloring of F_i."""
    if coloring == "cole-vishkin":
        return cole_vishkin_emulated(
            out_edge,
            initial_colors=initial_colors,
            ledger=ledger,
            cost_model=model,
            height=height,
            category="randomized.coloring",
        )
    if coloring == "randomized":
        budget = coloring_rounds
        if budget is None:
            budget = int(math.ceil(math.log2(max(2.0, (cap or 1) / delta)))) + 2
        colors, _abstaining = randomized_coloring_emulated(
            out_edge,
            rounds=budget,
            rng=rng,
            ledger=ledger,
            cost_model=model,
            height=height,
        )
        return colors, budget
    raise ValueError(f"unknown coloring {coloring!r}")
