"""Frequent pattern mining: all-frequent, closed, sequence and graph miners."""

from .closed import closed_fpgrowth
from .condense import deduction_bounds, partition_derivable
from .frequent import frequent_itemsets
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
    "frequent_itemsets",
    "closed_fpgrowth",
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
