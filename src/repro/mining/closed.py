"""Closed frequent itemset mining (the role FPClose [9] plays in the paper).

The paper uses *closed* patterns as features because a non-closed pattern is
completely redundant w.r.t. its closure (Section 3.3).  This module
implements an LCM-style closed miner (Uno et al.): enumeration of closed
itemsets via *prefix-preserving closure extension*, which visits every
closed frequent itemset exactly once with no duplicate detection and no
storage of already-found patterns.

The vertical representation is packed: each item carries a uint64 bitset
over transactions (:class:`repro.core.bitset.BitMatrix`), so tidset
intersection is a bitwise AND and support is a popcount.  An item joins
the closure of a tidset T iff it keeps T's support, ``|T & mask_i| == |T|``.

The search expands a *batch* of nodes per numpy step, not one node per
call.  An explicit stack holds batches of candidate nodes P ∪ {i}: their
tidsets and supports, P's free-item and closure masks over the frequent
items, i, |P| and the extension path.  The tidsets of a batch and the
frequent item masks are both held *word-major*, ``(n_words, nodes)`` and
``(n_words, n_frequent)``, so one :func:`~repro.core.bitset.and_popcount`
of the two, broadcast to ``(nodes, n_frequent)``, gives the support of
every (node, item) pair.  From it, every node's closure and its
prefix-preservation test (no free item below i joins) are one compare
and one masked ``any``; the survivors are recorded, items infrequent with
a node leave its free mask for the whole subtree, and the frequent
extensions above i are pushed as the next batches.  Nodes already at
``max_length`` items are recorded but not expanded.

Records come out in batch order.  The depth-first preorder of the extension
tree is the lexicographic order of the nodes' extension paths (a prefix
first), so one sort by path restores it: the output order is the
depth-first LCM's, on which ``max_length`` and the golden fixture rely.
One byte budget, :data:`_STEP_BYTES`, bounds the nodes per step and so
both the step's AND buffer and the children a batch pushes: the frontier
holds at most one budget per depth level.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.bitset import BitMatrix, and_popcount, packed_ones
from ..obs import core as _obs
from .itemsets import (
    MiningResult,
    PatternBudgetExceeded,
    check_max_length,
    transaction_bits,
)

__all__ = ["closed_bits", "closed_fpgrowth"]

#: Byte budget of one search step: sized as if a batch's ``(nodes,
#: n_frequent, n_words)`` uint64 AND were one buffer (``and_popcount``
#: blocks it more finely), plus the tidsets, masks and paths of the at
#: most ``n_frequent`` children per node it pushes.  A step always takes
#: at least one node, so a very wide database degrades to one per step.
_STEP_BYTES = 8 << 20


def closed_fpgrowth(
    transactions: Sequence[Sequence[int]],
    min_support: int,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> MiningResult:
    """Mine all *closed* frequent itemsets (absolute ``min_support``).

    Output: every itemset X with support >= min_support such that no proper
    superset of X has the same support.  Order of patterns is deterministic
    (preorder of the prefix-preserving extension tree): :func:`closed_bits`.

    Raises
    ------
    PatternBudgetExceeded
        If ``max_patterns`` closed patterns would be exceeded (see the
        budget semantics documented on the exception).
    """
    return closed_bits(
        transaction_bits(transactions), min_support, max_length, max_patterns
    )


def closed_bits(
    item_bits: BitMatrix,
    min_support: int,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> MiningResult:
    """:func:`closed_fpgrowth` over packed item masks (the words entry each
    class partition of ``mine_class_patterns`` is mined through)."""
    if min_support < 1:
        raise ValueError("min_support is an absolute count and must be >= 1")
    check_max_length(max_length)
    n_rows, n_items = item_bits.n_bits, item_bits.n_masks
    if n_rows == 0 or n_items == 0 or n_rows < min_support:
        return MiningResult([], min_support, n_rows)

    column_counts = item_bits.popcounts()
    frequent_items = np.nonzero(column_counts >= min_support)[0]
    if len(frequent_items) == 0:
        return MiningResult([], min_support, n_rows)

    # Word-major, like the frontier tidsets: (n_words, n_frequent).
    words = np.ascontiguousarray(item_bits.words[frequent_items].T)
    n_words, n_frequent = words.shape
    positions = np.arange(n_frequent)
    limit = n_frequent if max_length is None else min(max_length, n_frequent)
    # Per node of a step, for each of at most n_frequent children: a tidset
    # of n_words uint64 words (also the node's share of the step's AND),
    # a free and a closure mask byte per item, and a path of <= limit items.
    node_bytes = n_frequent * (8 * n_words + 2 * n_frequent + 8 * limit)
    step = max(1, _STEP_BYTES // node_bytes)

    itemsets: list[tuple[int, ...]] = []
    supports: list[np.ndarray] = []
    paths: list[np.ndarray] = []
    # Enumeration statistics; local int bumps flushed to the obs session
    # once at the end (also when the budget trips mid-search).
    stats = dict.fromkeys(
        ("patterns", "closure_checks", "support_pruned", "prefix_pruned"), 0
    )

    def record(closures: np.ndarray, counts: np.ndarray, path: np.ndarray) -> None:
        # Record-then-check, the root included: a trip reports budget + 1
        # however many patterns the batch added.
        nodes, columns = np.nonzero(closures)
        flat = frequent_items[columns].tolist()
        ends = np.searchsorted(nodes, np.arange(1, len(closures) + 1)).tolist()
        itemsets.extend(tuple(flat[a:b]) for a, b in zip([0] + ends, ends))
        supports.append(counts)
        paths.append(path)
        stats["patterns"] += len(closures)
        if max_patterns is not None and stats["patterns"] > max_patterns:
            stats["patterns"] = max_patterns + 1
            raise PatternBudgetExceeded(max_patterns, stats["patterns"])

    try:
        # A batch: the candidates' tidsets, P's free and closure masks, i,
        # |P|, the extension paths and the supports.  The root is the
        # empty set's candidate: every item free, none in P.
        stack = [(
            packed_ones(n_rows)[:, np.newaxis],
            np.ones((1, n_frequent), dtype=bool),
            np.zeros((1, n_frequent), dtype=bool),
            np.array([-1]),
            np.array([0]),
            np.zeros((1, 0), dtype=np.int64),
            np.array([n_rows]),
        )]
        while stack:
            rows, free, closure, item, size, path, support = stack.pop()
            # One AND + popcount: the support of every (node, item) pair.
            # A free item joins a node's closure iff it keeps the node's
            # support, and an item infrequent with a node can neither
            # extend it nor join a closure below it.
            counts = and_popcount(rows[:, :, np.newaxis], words[:, np.newaxis, :])
            joins = free & (counts == support[:, np.newaxis])
            # Prefix preservation: no free item below i joins.
            violated = (joins & (positions < item[:, np.newaxis])).any(axis=1)
            stats["prefix_pruned"] += int(violated.sum())
            sizes = size + joins.sum(axis=1)
            closure = closure | joins
            # Only the root can close to the empty set, which is no pattern.
            keep = ~violated & (sizes > 0) & (sizes <= limit)
            record(closure[keep], support[keep], path[keep])
            grow = ~violated & (sizes < limit)
            free = free & ~joins & grow[:, np.newaxis]
            above = positions > item[:, np.newaxis]
            infrequent = free & (counts < min_support)
            stats["support_pruned"] += int((infrequent & above).sum())
            free &= ~infrequent
            nodes, items = np.nonzero(free & above)
            stats["closure_checks"] += len(nodes)
            for start in range(0, len(nodes), step):
                node, ext = nodes[start : start + step], items[start : start + step]
                stack.append((
                    rows[:, node] & words[:, ext],
                    free[node],
                    closure[node],
                    ext,
                    sizes[node],
                    np.column_stack([path[node], ext]),
                    counts[node, ext],
                ))
    finally:
        session = _obs._ACTIVE
        if session is not None:
            for name, value in stats.items():
                session.add(f"mining.closed.{name}", value)

    # Preorder: sort by extension path, shorter (a prefix) first.
    depth = max(p.shape[1] for p in paths)
    keys = np.full((len(itemsets), depth), -1, dtype=np.int64)
    offset = 0
    for path in paths:
        keys[offset : offset + len(path), : path.shape[1]] = path
        offset += len(path)
    order = np.lexsort(keys.T[::-1]) if depth else np.arange(len(itemsets))
    counts = np.concatenate(supports)
    return MiningResult.from_counts(
        [itemsets[k] for k in order.tolist()], counts[order], min_support, n_rows
    )
