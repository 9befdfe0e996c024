"""Stage I: the deterministic partition algorithm (paper Section 2.1).

Repeatedly contracts the partition through phases of forest decomposition
(on the auxiliary graph) + CHW merging until the number of inter-part
edges drops below the target (``epsilon * m / 2`` for the planarity
tester; ``epsilon * n`` for the Theorem 3 partition).  Claims reproduced:

* Claim 1 / Claim 3: each phase multiplies the cut weight by at most
  ``1 - 1/(12*alpha)`` (we assert the provable ``1 - 1/(36*alpha)``),
  so ``O(log 1/epsilon)`` phases suffice; on planar (arboricity <= 3)
  graphs the forest decomposition never rejects.
* Claim 4: part diameters grow at most geometrically (<= 4^i); we track
  spanning-tree heights exactly.
* Lemma 6: parts keep rooted spanning trees; maintained by construction
  and checked by ``Partition.validate`` in tests.

One engine runs every input: the phase loop below works on the
CSR-native arrays of :mod:`repro.partition.dense`.  Node labels reach
it through :func:`~repro.partition.dense.dense_topology`, which maps
any hashable labels to dense ints in ``id_key`` order (CONGEST ids are
O(log n)-bit integers) and keeps the original-label table, so every
result reports the caller's labels.  The seed dict engine survives only
as the test oracle :mod:`repro.partition._differential`.

Termination: the default mode stops as soon as the cut target is met
(substitution 2 in DESIGN.md -- a fixed-schedule CONGEST execution would
run the a-priori phase cap; we report both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import networkx as nx
import numpy as np

from ..congest.ledger import RoundLedger, TreeCostModel
from ..errors import PartitionError
from ..telemetry import get_tracer
from .dense import (
    DensePartitionState,
    cole_vishkin_seeded,
    dense_topology,
    forest_decomposition_dense,
    mark_and_choose_dense,
    orient_and_select_dense,
)
from .marking import MarkingResult
from .parts import Partition


@dataclass
class PhaseStats:
    """Measurements of one Stage I phase (benchmark E7/E8 inputs)."""

    phase: int
    parts_before: int
    parts_after: int
    cut_before: int
    cut_after: int
    max_height_before: int
    max_height_after: int
    fd_super_rounds: int
    cv_super_rounds: int
    max_marked_tree_height: int
    marked_weight: int
    contracted_weight: int

    @property
    def decay(self) -> float:
        """Cut-weight decay factor achieved by this phase."""
        if self.cut_before == 0:
            return 1.0
        return self.cut_after / self.cut_before


@dataclass
class Stage1Result:
    """Outcome of Stage I.

    Attributes:
        partition: the final partition (or the partition at rejection).
        success: False when some part obtained evidence of arboricity
            > alpha (the graph is certainly not planar).
        rejecting_parts: root ids holding the rejection evidence.
        phases: per-phase statistics.
        ledger: round-cost accounting for the whole stage.
        target_cut: the cut-size target that was used.
        theoretical_phase_cap: the a-priori phase bound t.
        dense_state: the final :class:`~repro.partition.dense.
            DensePartitionState` (``None`` only on results built by the
            test oracle).  Downstream consumers -- the Corollary 17
            spanner builder and the application verifiers -- read the
            partition's parent/part-of arrays and label table from here
            instead of round-tripping through :class:`Partition`.
    """

    partition: Partition
    success: bool
    rejecting_parts: Tuple[Any, ...]
    phases: List[PhaseStats]
    ledger: RoundLedger
    target_cut: float
    theoretical_phase_cap: int
    dense_state: Optional[Any] = field(default=None, repr=False, compare=False)

    @property
    def rounds(self) -> int:
        """Total CONGEST rounds charged for Stage I."""
        return self.ledger.total

    @property
    def final_cut(self) -> int:
        """Number of inter-part edges in the final partition."""
        return self.phases[-1].cut_after if self.phases else self.partition.cut_size()


def theoretical_phase_cap(m: int, target_cut: float, alpha: int) -> int:
    """A-priori number of phases t with m * decay^t <= target.

    Uses the conservative provable per-phase decay ``1 - 1/(36*alpha)``
    (heaviest-out-edge selection keeps >= 1/(3*alpha) of the weight, the
    marking keeps >= 1/3 of that, the parity choice >= 1/2).
    """
    if m == 0 or target_cut >= m:
        return 0
    decay = 1.0 - 1.0 / (36 * alpha)
    return int(math.ceil(math.log(max(target_cut, 0.5) / m) / math.log(decay)))


def _charge_merging_overhead(
    ledger: RoundLedger,
    model: TreeCostModel,
    height: int,
    marking: MarkingResult,
) -> None:
    """Rounds for sub-steps 1, 2b, 3 and 4 (all but the CV coloring).

    Per Section 2.1.6: the heaviest-out-edge designation is a broadcast +
    convergecast over part trees; the marking decision needs per-color
    incoming weight sums (one convergecast carrying <= 3 values); the
    parity decision walks each marked tree (height <= 10) with one
    auxiliary hop per level, twice (levels down, weights up); the
    contraction notification is one broadcast + path flip.
    """
    relay = model.aux_message_relay(height)
    ledger.charge(2 * relay, "stage1.merge.designate", "sub-step 1: pick u_i^j")
    ledger.charge(
        model.convergecast(height, messages=3) + model.broadcast(height),
        "stage1.merge.marking",
        "sub-step 2b: per-color incoming weight sums",
    )
    tree_h = max(marking.tree_heights.values(), default=0)
    ledger.charge(
        (2 * tree_h + 2) * relay,
        "stage1.merge.parity",
        f"sub-step 3: levels+weights over marked trees (height {tree_h})",
    )
    ledger.charge(2 * relay, "stage1.merge.contract", "sub-step 4: re-root")


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
    """Run Stage I on *graph*.

    The phase loop runs on the CSR-native dense state: the per-phase
    O(m) sweeps (auxiliary build, cut counting, merges) use the compiled
    topology's flat arrays and part ids are dense indices internally.
    Dense ids follow ``id_key`` order and Cole-Vishkin seeds from the
    part roots' labels exactly as
    :func:`~repro.partition.coloring.cole_vishkin_emulated` does, so
    colorings -- and therefore every contraction -- match the dict
    oracle in :mod:`repro.partition._differential` bit for bit.

    Args:
        graph: non-empty simple undirected graph with hashable labels.
        epsilon: distance parameter; the default cut target is
            ``epsilon * m / 2`` per Claim 3.
        alpha: arboricity bound to verify (3 = planar).
        target_cut: override the cut target (Theorem 3 uses
            ``epsilon * n``).
        max_phases: phase cap; defaults to the theoretical bound.
        early_stop: stop as soon as the target is met (see module doc).
        ledger: optional shared ledger (a fresh one is made otherwise).
        cost_model: emulation cost formulas.
        charge_full_budget: charge the full O(log n) forest-decomposition
            schedule per phase (paper behavior).
    """
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

    state = DensePartitionState(dense_topology(graph))
    labels = state.labels
    n = state.topology.n
    phases: List[PhaseStats] = []
    cut = m
    tracer = get_tracer()

    for phase_index in range(1, max_phases + 1):
        if cut == 0 or (early_stop and cut <= target_cut):
            break
        with tracer.span("stage1.aux_build", phase=phase_index, parts=state.size):
            aux = state.build_aux()
        height = state.max_height()
        pids = aux.pids

        with tracer.span("stage1.forest", phase=phase_index, aux_edges=aux.edge_count()):
            success, active, inactive_round, fd_super_rounds = (
                forest_decomposition_dense(
                    aux,
                    alpha,
                    n_graph=n,
                    height=height,
                    ledger=ledger,
                    cost_model=model,
                    charge_full_budget=charge_full_budget,
                )
            )
        if not success:
            # Compact order is dense-id order, i.e. id_key order.
            rejecting = tuple(
                labels[pids[c]] for c in np.nonzero(active)[0].tolist()
            )
            return Stage1Result(
                partition=state.to_partition(graph),
                success=False,
                rejecting_parts=rejecting,
                phases=phases,
                ledger=ledger,
                target_cut=target_cut,
                theoretical_phase_cap=cap,
                dense_state=state,
            )

        # Sub-steps 1-4 on compact arrays: heaviest-out-edge selection,
        # vectorized Cole-Vishkin, CHW marking, star contraction.
        with tracer.span("stage1.cv", phase=phase_index):
            parent_c, weight_c = orient_and_select_dense(aux, inactive_round)
            colors, cv_rounds = cole_vishkin_seeded(
                parent_c,
                [labels[pid] for pid in pids],
                ledger=ledger,
                cost_model=model,
                height=height,
            )
        with tracer.span("stage1.marking", phase=phase_index):
            marking = mark_and_choose_dense(parent_c, weight_c, colors)
            _charge_merging_overhead(ledger, model, height, marking)

            parts_before = state.size
            state.merge(
                [(pids[c], pids[p]) for c, p in marking.contract_edges], aux
            )
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
                fd_super_rounds=fd_super_rounds,
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
        cut = new_cut

    return Stage1Result(
        partition=state.to_partition(graph),
        success=True,
        rejecting_parts=(),
        phases=phases,
        ledger=ledger,
        target_cut=target_cut,
        theoretical_phase_cap=cap,
        dense_state=state,
    )
