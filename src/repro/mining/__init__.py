"""Frequent pattern mining: all-frequent, closed, sharded and sequence miners."""

from .closed import closed_fpgrowth
from .frequent import frequent_itemsets
from .generation import mine_class_patterns
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
    "MiningTimeLimitExceeded",
    "prefixspan",
    "SequencePattern",
    "is_subsequence",
]
