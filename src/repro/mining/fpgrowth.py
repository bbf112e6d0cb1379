"""FP-growth: frequent itemset mining without candidate generation.

Implements the pattern-growth recursion of Han, Pei & Yin (SIGMOD 2000),
including the single-path shortcut (a single-path conditional tree yields all
its item combinations directly).
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from ..obs import core as _obs
from .fptree import FPTree
from .itemsets import MiningResult, Pattern, PatternBudgetExceeded, canonical

__all__ = ["fpgrowth"]


def fpgrowth(
    transactions: Sequence[Sequence[int]],
    min_support: int,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> MiningResult:
    """Mine all frequent itemsets with absolute support >= ``min_support``.

    Property-tested to agree exactly with a level-wise Apriori reference
    miner kept with the test suite.

    Raises
    ------
    PatternBudgetExceeded
        If ``max_patterns`` is given and the enumeration exceeds it.  Used by
        the scalability experiments to detect the min_sup = 1 blow-up.
    """
    if min_support < 1:
        raise ValueError("min_support is an absolute count and must be >= 1")
    transactions = [tuple(t) for t in transactions]
    tree = FPTree.from_transactions(transactions, min_support)

    patterns: list[Pattern] = []

    def emit(items: tuple[int, ...], support: int) -> None:
        # Record-then-check: trips at budget + 1 (the documented semantics
        # on PatternBudgetExceeded, identical across all miners).
        patterns.append(Pattern(items=items, support=support))
        if max_patterns is not None and len(patterns) > max_patterns:
            raise PatternBudgetExceeded(max_patterns, len(patterns))

    # Recursion statistics; plain local int bumps, flushed to the obs
    # session once at the end (also on a budget trip).
    stats = {"conditional_trees": 0, "single_paths": 0}
    try:
        _mine(
            tree,
            suffix=(),
            min_support=min_support,
            max_length=max_length,
            emit=emit,
            stats=stats,
        )
    finally:
        session = _obs._ACTIVE
        if session is not None:
            session.add("mining.fpgrowth.patterns", len(patterns))
            session.add(
                "mining.fpgrowth.conditional_trees", stats["conditional_trees"]
            )
            session.add("mining.fpgrowth.single_paths", stats["single_paths"])
    return MiningResult(patterns, min_support=min_support, n_rows=len(transactions))


def _mine(tree: FPTree, suffix, min_support, max_length, emit, stats) -> None:
    single, chain = tree.is_single_path()
    if single:
        stats["single_paths"] += 1
        _emit_single_path(chain, suffix, max_length, emit)
        return

    for item in tree.items_ascending():
        support = tree.item_counts[item]
        new_suffix = canonical(suffix + (item,))
        emit(new_suffix, support)
        if max_length is not None and len(new_suffix) >= max_length:
            continue
        base = tree.conditional_pattern_base(item)
        if not base:
            continue
        conditional = FPTree.from_weighted(base, min_support)
        if not conditional.is_empty:
            stats["conditional_trees"] += 1
            _mine(conditional, new_suffix, min_support, max_length, emit, stats)


def _emit_single_path(chain, suffix, max_length, emit) -> None:
    """All combinations of a single-path tree, each with the min count on it.

    For a path n1 -> n2 -> ... -> nk (counts non-increasing), every non-empty
    subset S is frequent with support min(count(n) for n in S) = count of the
    deepest node in S.
    """
    items = [node.item for node in chain]
    counts = [node.count for node in chain]
    budget = None if max_length is None else max_length - len(suffix)
    if budget is not None and budget <= 0:
        return
    max_take = len(items) if budget is None else min(budget, len(items))
    for size in range(1, max_take + 1):
        for index_subset in combinations(range(len(items)), size):
            subset_items = tuple(items[i] for i in index_subset)
            support = counts[index_subset[-1]]  # deepest node has min count
            emit(canonical(suffix + subset_items), support)
