"""All frequent itemsets by one depth-first search over packed tidsets.

Each item carries a uint64 bitset over transactions
(:class:`repro.core.bitset.BitMatrix`), so a node's tidset is the AND of
its items' masks and its support is a popcount.  A search node handles
all of its extensions at once: one ``(n_items, n_words)`` AND of its
tidset with every remaining item, then one popcount.  An item infrequent
with the node is dropped for its whole subtree, since support is
anti-monotone.

:func:`search` is shared by three callers that differ only in what they
do with a node's children: :func:`frequent_itemsets` (the ``"all"``
miner) emits every child, the out-of-core local pass
(:mod:`repro.mining.sharded`) runs :func:`mine_words` straight off a
shard's mmap'd item masks, and direct mining
(:mod:`repro.selection.direct`) scores the children and descends only
where its information-gain bound can still win.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.bitset import BitMatrix, packed_ones, popcount
from ..obs import core as _obs
from .itemsets import (
    MiningResult,
    PatternBudgetExceeded,
    check_max_length,
    transaction_bits,
)

__all__ = ["frequent_bits", "frequent_itemsets", "mine_words", "search"]

def search(
    item_words: np.ndarray,
    rows: np.ndarray,
    items: np.ndarray,
    min_count: int,
    visit: Callable,
    prefix: tuple[int, ...] = (),
) -> None:
    """Depth-first search over the itemsets of ``items`` frequent in ``rows``.

    ``item_words`` holds the packed item masks, ``rows`` is the node's
    packed tidset and ``items`` lists, in search order, the items that may
    extend ``prefix``.  The children with support ``>= min_count`` go to
    ``visit(prefix, items, rows, supports)`` in one batch — child ``k`` is
    ``prefix + (items[k],)`` with tidset ``rows[k]`` — and it returns a
    per-child "descend?" predicate.  The predicate is called for each
    child in order, and a child it accepts is expanded with the later
    surviving items before the next child is asked, so the visitor sees
    the DFS preorder.
    """
    child_rows = item_words[items] & rows
    supports = popcount(child_rows)
    keep = supports >= min_count
    if not keep.any():
        return
    items, child_rows, supports = items[keep], child_rows[keep], supports[keep]
    descend = visit(prefix, items.tolist(), child_rows, supports)
    for k in range(len(items)):
        if descend(k) and k + 1 < len(items):
            search(
                item_words,
                child_rows[k],
                items[k + 1 :],
                min_count,
                visit,
                prefix + (int(items[k]),),
            )


def mine_words(
    item_words: np.ndarray,
    rows: np.ndarray,
    min_support: int,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Every itemset with support ``>= min_support`` inside the tidset ``rows``.

    Returns the itemsets, canonical as items are searched in ascending
    order, and their supports.  The ``max_patterns`` budget has the
    record-then-check semantics of :class:`PatternBudgetExceeded`; the
    ``mining.frequent.patterns`` counter is flushed also on a trip.
    """
    itemsets: list[tuple[int, ...]] = []
    supports: list[int] = []

    def visit(prefix, items, _rows, child_supports):
        deeper = max_length is None or len(prefix) + 1 < max_length
        counts = child_supports.tolist()

        def descend(k: int) -> bool:
            itemsets.append(prefix + (items[k],))
            supports.append(counts[k])
            if max_patterns is not None and len(itemsets) > max_patterns:
                raise PatternBudgetExceeded(max_patterns, len(itemsets))
            return deeper

        return descend

    try:
        search(item_words, rows, np.arange(len(item_words)), min_support, visit)
    finally:
        _obs.add("mining.frequent.patterns", len(itemsets))
    return itemsets, supports


def frequent_itemsets(
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
    return frequent_bits(
        transaction_bits(transactions), min_support, max_length, max_patterns
    )


def frequent_bits(
    item_bits: BitMatrix,
    min_support: int,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> MiningResult:
    """:func:`frequent_itemsets` over packed item masks (the words entry
    each class partition of ``mine_class_patterns`` is mined through)."""
    if min_support < 1:
        raise ValueError("min_support is an absolute count and must be >= 1")
    check_max_length(max_length)
    n_rows = item_bits.n_bits
    itemsets, supports = mine_words(
        item_bits.words, packed_ones(n_rows), min_support, max_length, max_patterns
    )
    return MiningResult.from_counts(itemsets, supports, min_support, n_rows)
