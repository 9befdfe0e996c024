"""Stage I partitioning: deterministic (Thm 1/3) and randomized (Thm 4)."""

from .auxiliary import AuxEdge, AuxiliaryGraph
from .coloring import cole_vishkin_emulated, randomized_coloring_emulated
from .dense import DenseAuxiliaryGraph, DensePartitionState, dense_topology
from .forest_decomposition import (
    ForestDecompositionResult,
    forest_decomposition_emulated,
)
from .marking import MarkingResult, mark_and_choose
from .parts import Part, Partition, build_part
from .stage1 import (
    PhaseStats,
    Stage1Result,
    partition_stage1,
    theoretical_phase_cap,
)
from .weighted_selection import RandomizedPartitionResult, partition_randomized

__all__ = [
    "AuxEdge",
    "AuxiliaryGraph",
    "DenseAuxiliaryGraph",
    "DensePartitionState",
    "ForestDecompositionResult",
    "MarkingResult",
    "Part",
    "Partition",
    "PhaseStats",
    "RandomizedPartitionResult",
    "Stage1Result",
    "build_part",
    "cole_vishkin_emulated",
    "dense_topology",
    "randomized_coloring_emulated",
    "forest_decomposition_emulated",
    "mark_and_choose",
    "partition_randomized",
    "partition_stage1",
    "theoretical_phase_cap",
]
