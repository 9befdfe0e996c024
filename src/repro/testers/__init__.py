"""Distributed property testers: planarity (Thm 1) and applications (Cor 16)."""

from .applications import test_bipartiteness, test_cycle_freeness
from .hereditary import (
    BUILTIN_CHECKERS,
    HereditaryTestResult,
    bipartiteness_checker,
    cycle_freeness_checker,
    degeneracy_checker,
    outerplanarity_checker,
    planarity_checker,
    test_hereditary_property,
)
from .labels import (
    children_in_rotation_order,
    deterministic_bfs_tree,
    embedding_ranks,
    max_label_length,
    non_tree_intervals,
)
from .planarity import PlanarityTestConfig, test_planarity
from .results import ApplicationTestResult, PartVerdict, PlanarityTestResult
from .stage2 import Stage2Config, sample_size, test_part
from .violations import (
    SamplingOutcome,
    count_violating,
    edges_interlace,
    sample_and_detect,
    violating_mask,
    violating_mask_bruteforce,
)

__all__ = [
    "ApplicationTestResult",
    "BUILTIN_CHECKERS",
    "HereditaryTestResult",
    "PartVerdict",
    "PlanarityTestConfig",
    "PlanarityTestResult",
    "SamplingOutcome",
    "Stage2Config",
    "children_in_rotation_order",
    "count_violating",
    "deterministic_bfs_tree",
    "edges_interlace",
    "embedding_ranks",
    "max_label_length",
    "non_tree_intervals",
    "sample_and_detect",
    "sample_size",
    "bipartiteness_checker",
    "cycle_freeness_checker",
    "degeneracy_checker",
    "outerplanarity_checker",
    "planarity_checker",
    "test_bipartiteness",
    "test_cycle_freeness",
    "test_part",
    "test_hereditary_property",
    "test_planarity",
    "violating_mask",
    "violating_mask_bruteforce",
]
