"""Frequent pattern mining: FP-growth, closed, sequence and graph miners."""

from .closed import closed_fpgrowth, occurrence_matrix
from .fpgrowth import fpgrowth
from .fptree import FPNode, FPTree
from .condense import deduction_bounds, partition_derivable
from .generation import (
    filter_by_information_gain,
    mine_class_patterns,
    recount_supports,
)
from .gspan import GraphPattern, contains_subgraph, gspan
from .guards import GuardedMiningReport, MiningTimeLimitExceeded, guarded_mine
from .itemsets import MiningResult, Pattern, PatternBudgetExceeded, canonical
from .prefixspan import SequencePattern, is_subsequence, prefixspan
from .sharded import ShardedMiningResult, mine_sharded

__all__ = [
    "fpgrowth",
    "closed_fpgrowth",
    "occurrence_matrix",
    "FPTree",
    "FPNode",
    "Pattern",
    "MiningResult",
    "PatternBudgetExceeded",
    "canonical",
    "mine_class_patterns",
    "recount_supports",
    "filter_by_information_gain",
    "mine_sharded",
    "ShardedMiningResult",
    "deduction_bounds",
    "partition_derivable",
    "guarded_mine",
    "GuardedMiningReport",
    "MiningTimeLimitExceeded",
    "gspan",
    "GraphPattern",
    "contains_subgraph",
    "prefixspan",
    "SequencePattern",
    "is_subsequence",
]
