"""Non-derivable-itemset condensation (Calders & Goethals, PKDD 2002).

The inclusion-exclusion principle bounds an itemset's support from the
supports of its proper subsets: for every ``J ⊆ I``,

    delta_J(I) = sum over J ⊆ X ⊊ I of (-1)^(|I \\ X| + 1) * support(X)

is an upper bound on ``support(I)`` when ``|I \\ J|`` is odd and a lower
bound when it is even.  When the tightest lower and upper bounds meet,
``support(I)`` is *derivable* — known exactly without touching the data.

The sharded miner uses this as a candidate-space reducer: its global
counting pass proceeds level-wise (length 1, 2, ...), so by the time a
length-``k`` candidate is considered, the exact per-class counts of every
proper subset are already known (the candidate set is subset-closed —
each local search emits all frequent subsets of anything it emits).
Candidates whose per-class bounds all collapse are dropped from the
cross-shard count exchange and their counts filled in by deduction —
exactness is a theorem, not an approximation, which is why the
condensed path is property-tested equal to the uncondensed one.

Bounds here are vectors over classes (int64, one entry per class), since
the paper's pipeline needs per-class supports; the classic single-count
formulation is the 1-class special case.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from ..obs import core as _obs

__all__ = ["deduction_bounds", "partition_derivable", "DEFAULT_MAX_DEDUCE_LENGTH"]

#: Deduction is Theta(3^k) in the itemset length k; past this length the
#: sharded miner just counts (the bound work would dwarf the count work).
DEFAULT_MAX_DEDUCE_LENGTH = 12


def deduction_bounds(
    items: Sequence[int],
    counts_of: Callable[[tuple[int, ...]], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Tightest (lower, upper) inclusion-exclusion bounds on ``support(items)``.

    ``counts_of`` maps every *proper* subset of ``items`` (including the
    empty tuple, whose count vector is the per-class row totals) to its
    exact per-class int64 count vector.  Returns ``(lower, upper)`` int64
    vectors of the same shape.

    Raises ``KeyError``/whatever ``counts_of`` raises if a subset's counts
    are unknown — callers must guarantee subset closure first.
    """
    items = tuple(sorted(int(i) for i in items))
    k = len(items)
    if k == 0:
        total = np.asarray(counts_of(()), dtype=np.int64)
        return total.copy(), total.copy()
    # Exact subset counts, indexed by bitmask over the k member items.
    # sigma[m] = per-class counts of {items[b] : bit b set in m}.
    full = (1 << k) - 1
    sigma = [None] * full  # proper subsets only; index `full` never used
    sigma[0] = np.asarray(counts_of(()), dtype=np.int64)
    for size in range(1, k):
        for positions in combinations(range(k), size):
            mask = 0
            for b in positions:
                mask |= 1 << b
            sigma[mask] = np.asarray(
                counts_of(tuple(items[b] for b in positions)), dtype=np.int64
            )
    n_classes = sigma[0].shape[0]
    lower = np.full(n_classes, np.iinfo(np.int64).min, dtype=np.int64)
    upper = np.full(n_classes, np.iinfo(np.int64).max, dtype=np.int64)
    bit_counts = np.array(
        [bin(m).count("1") for m in range(full + 1)], dtype=np.intp
    )
    for j in range(full):  # every proper subset J (as bitmask), incl. empty
        delta = np.zeros(n_classes, dtype=np.int64)
        # Supersets X of J with X != I: iterate the submasks of I \ J.
        free = full & ~j
        sub = free
        while True:
            x = j | sub
            if x != full:
                diff = k - int(bit_counts[x])  # |I \ X|
                if diff % 2 == 1:
                    delta += sigma[x]
                else:
                    delta -= sigma[x]
            if sub == 0:
                break
            sub = (sub - 1) & free
        if (k - int(bit_counts[j])) % 2 == 1:
            upper = np.minimum(upper, delta)
        else:
            lower = np.maximum(lower, delta)
    # Supports are counts: [0, min subset count] always holds, which also
    # normalizes the k=1 case (whose only deduction is sigma <= sigma(∅)).
    lower = np.maximum(lower, 0)
    return lower, upper


def partition_derivable(
    level: Sequence[tuple[int, ...]],
    counts_of: Callable[[tuple[int, ...]], np.ndarray],
    max_deduce_length: int = DEFAULT_MAX_DEDUCE_LENGTH,
) -> tuple[dict[tuple[int, ...], np.ndarray], list[tuple[int, ...]]]:
    """Split one level of candidates into derived counts vs. must-count.

    Returns ``(derived, remaining)``: ``derived`` maps each derivable
    itemset to its exact per-class count vector (the collapsed bound);
    ``remaining`` lists the itemsets that still need a data pass, in the
    input order.  Itemsets longer than ``max_deduce_length`` are never
    deduced (the 3^k bound computation would cost more than counting).
    """
    derived: dict[tuple[int, ...], np.ndarray] = {}
    remaining: list[tuple[int, ...]] = []
    for items in level:
        if len(items) > max_deduce_length:
            remaining.append(items)
            continue
        lower, upper = deduction_bounds(items, counts_of)
        if np.array_equal(lower, upper):
            derived[items] = lower
        else:
            remaining.append(items)
    if derived:
        _obs.add("mining.sharded.derived_candidates", len(derived))
    return derived, remaining
