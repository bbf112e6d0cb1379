"""Frequent pattern mining: all-frequent, closed, sequence and graph miners."""

from .closed import closed_fpgrowth
from .condense import deduction_bounds, partition_derivable
from .frequent import frequent_itemsets
from .generation import mine_class_patterns
from .gspan import GraphPattern, contains_subgraph, gspan
from .guards import MiningTimeLimitExceeded
from .itemsets import MiningResult, Pattern, PatternBudgetExceeded, canonical
from .prefixspan import SequencePattern, is_subsequence, prefixspan
from .sharded import mine_sharded

__all__ = [
    "frequent_itemsets",
    "closed_fpgrowth",
    "Pattern",
    "MiningResult",
    "PatternBudgetExceeded",
    "canonical",
    "mine_class_patterns",
    "mine_sharded",
    "deduction_bounds",
    "partition_derivable",
    "MiningTimeLimitExceeded",
    "gspan",
    "GraphPattern",
    "contains_subgraph",
    "prefixspan",
    "SequencePattern",
    "is_subsequence",
]
