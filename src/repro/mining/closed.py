"""Closed frequent itemset mining (the role FPClose [9] plays in the paper).

The paper uses *closed* patterns as features because a non-closed pattern is
completely redundant w.r.t. its closure (Section 3.3).  This module
implements an LCM-style closed miner (Uno et al.): depth-first enumeration of
closed itemsets via *prefix-preserving closure extension*, which visits every
closed frequent itemset exactly once with no duplicate detection and no
storage of already-found patterns.

The vertical representation is packed: each item carries a uint64 bitset
over transactions (:class:`repro.core.bitset.BitMatrix`), so tidset
intersection is a bitwise AND, support is a popcount, and the closure of a
tidset T is the set of items i whose mask has no zero bit inside T
(``T & ~mask_i == 0``).  A search node handles all of its extensions at
once: one AND + popcount for the supports of every extension, one blocked
AND for the closures of the frequent ones, and one masked ``any`` for the
prefix test — numpy work per node, not per (node, item) pair.  Nodes
already at ``max_length`` items are not expanded at all.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.bitset import BitMatrix, packed_ones, popcount
from ..obs import core as _obs
from .itemsets import MiningResult, Pattern, PatternBudgetExceeded, check_max_length

__all__ = ["closed_fpgrowth"]

#: Byte budget of the transient closure buffer, the ``(block, n_free,
#: n_words)`` uint64 AND one node's candidate extensions are closed with.
#: Caps the block of candidates handled at once; a single candidate is
#: always allowed, so a very wide database degrades to one per block.
_CLOSURE_BLOCK_BYTES = 8 << 20


def closed_fpgrowth(
    transactions: Sequence[Sequence[int]],
    min_support: int,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> MiningResult:
    """Mine all *closed* frequent itemsets (absolute ``min_support``).

    Output: every itemset X with support >= min_support such that no proper
    superset of X has the same support.  Order of patterns is deterministic
    (DFS over the prefix-preserving extension tree).

    Raises
    ------
    PatternBudgetExceeded
        If ``max_patterns`` closed patterns would be exceeded (see the
        budget semantics documented on the exception).
    """
    if min_support < 1:
        raise ValueError("min_support is an absolute count and must be >= 1")
    check_max_length(max_length)
    transactions = [tuple(set(t)) for t in transactions]
    n_rows = len(transactions)
    n_items = 1 + max((max(t) for t in transactions if t), default=-1)

    patterns: list[Pattern] = []

    def emit(items: tuple[int, ...], support: int) -> None:
        patterns.append(Pattern(items=items, support=support))
        if max_patterns is not None and len(patterns) > max_patterns:
            raise PatternBudgetExceeded(max_patterns, len(patterns))

    if n_rows == 0 or n_items == 0 or n_rows < min_support:
        return MiningResult(patterns, min_support=min_support, n_rows=n_rows)

    item_bits = BitMatrix.vertical(transactions, n_items)
    column_counts = item_bits.popcounts()
    frequent_items = np.nonzero(column_counts >= min_support)[0]
    if len(frequent_items) == 0:
        return MiningResult(patterns, min_support=min_support, n_rows=n_rows)

    root_closure = column_counts == n_rows  # items present in every transaction
    root_items = tuple(np.flatnonzero(root_closure).tolist())
    if root_items and (max_length is None or len(root_items) <= max_length):
        emit(root_items, n_rows)

    # Enumeration statistics; local int bumps flushed to the obs session
    # once at the end (also when the budget trips mid-search).
    stats = {"closure_checks": 0, "support_pruned": 0, "prefix_pruned": 0}
    try:
        if max_length is None or len(root_items) < max_length:
            _expand(
                item_words=item_bits.words,
                free=frequent_items[~root_closure[frequent_items]],
                closure_items=root_items,
                row_words=packed_ones(n_rows),
                core_item=-1,
                min_support=min_support,
                max_length=max_length,
                emit=emit,
                stats=stats,
            )
    finally:
        session = _obs._ACTIVE
        if session is not None:
            session.add("mining.closed.patterns", len(patterns))
            session.add("mining.closed.closure_checks", stats["closure_checks"])
            session.add("mining.closed.support_pruned", stats["support_pruned"])
            session.add("mining.closed.prefix_pruned", stats["prefix_pruned"])
    return MiningResult(patterns, min_support=min_support, n_rows=n_rows)


def _expand(
    item_words: np.ndarray,
    free: np.ndarray,
    closure_items: tuple[int, ...],
    row_words: np.ndarray,
    core_item: int,
    min_support: int,
    max_length: int | None,
    emit,
    stats: dict,
) -> None:
    """Prefix-preserving closure extension from one closed itemset.

    ``closure_items`` are the items of the current closed set P and
    ``row_words`` is its packed tidset; ``free`` lists, ascending, the items
    outside P that were frequent together with P's parent, or frequent at
    all for the root: the only ones that can extend P or join a closure
    below it.  For every free item
    i > core_item frequent together with P we compute Y = clo(P ∪ {i}); Y
    is accepted iff its items below i coincide with P's (prefix
    preservation), which guarantees each closed set is generated from
    exactly one parent.

    All of a node's extensions are handled at once: one ``(n_free,
    n_words)`` AND plus popcount gives the support of P with each free item;
    an item infrequent with P can neither extend P nor join a closure below
    it, so it is dropped here and for the whole subtree.  Then, a block of
    candidates at a time, one ``(block, n_free, n_words)`` AND against the
    free items' complemented tidsets gives the closures (item j joins
    clo(P ∪ {i}) iff no row of the new tidset misses j), and the prefix
    test is one masked ``any``.  The survivors are then emitted and
    expanded in item order, so the DFS order is the per-item one.  Every
    extension adds at least one item, so a closed set of ``max_length``
    items is emitted but never expanded.
    """
    supports = popcount(item_words[free] & row_words)
    frequent = supports >= min_support
    stats["support_pruned"] += int((~frequent & (free > core_item)).sum())
    free, supports = free[frequent], supports[frequent]
    candidates = np.flatnonzero(free > core_item)
    n_words = row_words.shape[0]
    block = max(1, _CLOSURE_BLOCK_BYTES // max(1, len(free) * n_words * 8))
    for start in range(0, len(candidates), block):
        positions = candidates[start : start + block]
        stats["closure_checks"] += len(positions)
        rows = item_words[free[positions]] & row_words
        # (candidate, free item) -> the free item joins the closure.
        missing = np.invert(item_words[free])
        joins = ~(rows[:, np.newaxis, :] & missing[np.newaxis, :, :]).any(axis=2)
        del missing  # not held through the recursion below
        # Prefix preservation: no free item below the extension item joins.
        below = np.arange(len(free))[np.newaxis, :] < positions[:, np.newaxis]
        violated = (joins & below).any(axis=1)
        stats["prefix_pruned"] += int(violated.sum())
        sizes = (len(closure_items) + joins.sum(axis=1)).tolist()
        for k in np.flatnonzero(~violated).tolist():
            if max_length is not None and sizes[k] > max_length:
                continue
            joined = free[joins[k]]
            items = closure_items + tuple(joined.tolist())
            emit(items, int(supports[positions[k]]))
            if max_length is None or sizes[k] < max_length:
                _expand(
                    item_words=item_words,
                    free=free[~joins[k]],
                    closure_items=items,
                    row_words=rows[k],
                    core_item=int(free[positions[k]]),
                    min_support=min_support,
                    max_length=max_length,
                    emit=emit,
                    stats=stats,
                )
