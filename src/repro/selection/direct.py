"""Direct discriminative pattern mining (DDPMine-style).

The paper's follow-on work (Cheng, Yan, Han & Yu, "Direct Discriminative
Pattern Mining for Effective Classification", ICDE 2008) removes the
mine-then-select two-step: instead of enumerating all frequent patterns and
filtering with MMRFS, it searches for the **single most discriminative
pattern directly**, pruning the search space with an information-gain upper
bound, then applies sequential covering and repeats.

This module implements that idea on the substrate of this package:

* a depth-first branch-and-bound search over itemsets — the packed-tidset
  search of :mod:`repro.mining.frequent`, with support pruning and a
  length cap — that scores each node's children in one batch with
  :func:`repro.measures.vectorized.score_covers`;
* the IG upper bound for supersets,
  :func:`repro.measures.vectorized.ig_subtree_bound`: any beta ⊇ alpha
  covers a subset of alpha's rows, and IG is convex in the covered
  per-class counts, so the best class vertex of alpha's coverage (each
  class fully covered or not) bounds every descendant's IG, for any
  number of classes;
* sequential covering: after each winning pattern, rows covered ``delta``
  times stop contributing to the gain computation.

Compared to mine-all + MMRFS this trades completeness for a much smaller
search (the ablation bench measures exactly that trade).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bitset import pack_bits, popcount
from ..datasets.transactions import TransactionDataset
from ..measures.vectorized import score_covers
from ..mining.frequent import search
from ..mining.itemsets import Pattern, absolute_min_support, check_mining_args

__all__ = ["DirectMiningResult", "ddpmine"]


@dataclass
class DirectMiningResult:
    """Patterns found by direct mining, in discovery (covering) order."""

    patterns: list[Pattern]
    gains: list[float]
    coverage_counts: np.ndarray
    nodes_explored: int
    delta: int

    def __len__(self) -> int:
        return len(self.patterns)

    @property
    def fully_covered(self) -> bool:
        return bool((self.coverage_counts >= self.delta).all())


def _best_pattern(
    item_words: np.ndarray,
    label_words: np.ndarray,
    order: np.ndarray,
    active: np.ndarray,
    min_count: int,
    max_length: int,
) -> tuple[tuple[int, ...] | None, float, int]:
    """Branch-and-bound search for the max-IG itemset on the active rows.

    ``active`` is the packed mask of the active rows, the root tidset, so
    every support and class count is taken on those rows only.  Items are
    extended in ``order``.  Returns (items, gain, nodes_explored); items
    is None when nothing beats zero gain.
    """
    class_totals = popcount(label_words & active)
    best_items: tuple[int, ...] | None = None
    best_gain = 1e-12
    nodes = 0

    def visit(prefix, items, rows, _supports):
        nonlocal nodes
        nodes += len(items)
        _, gains, bounds = score_covers(rows, label_words, class_totals)
        gains, bounds = gains.tolist(), bounds.tolist()
        deeper = len(prefix) + 1 < max_length

        def descend(k: int) -> bool:
            nonlocal best_items, best_gain
            if gains[k] > best_gain:
                best_gain = gains[k]
                best_items = prefix + (items[k],)
            return deeper and bounds[k] > best_gain

        return descend

    search(item_words, active, order, min_count, visit)
    return best_items, float(best_gain), nodes


def ddpmine(
    data: TransactionDataset,
    min_support: float = 0.05,
    delta: int = 1,
    max_length: int = 4,
    max_patterns: int = 500,
) -> DirectMiningResult:
    """Direct discriminative pattern mining with sequential covering.

    Parameters
    ----------
    data:
        Training transactions.
    min_support:
        Relative support floor on the *active* (not yet delta-covered)
        rows — patterns must stay statistically grounded as covering
        proceeds.
    delta:
        Coverage threshold: a row stops driving the search after being
        covered delta times (it still counts in contingency tables).
    max_length:
        Itemset length cap for the branch-and-bound search.
    max_patterns:
        Safety cap on the number of covering rounds.

    Returns
    -------
    DirectMiningResult
        Discovered patterns with their gain at discovery time.
    """
    check_mining_args(min_support, max_length)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    item_bits = data.item_bits()
    label_words = data.label_bits().words
    order = np.argsort(-item_bits.popcounts(), kind="stable")

    coverage_counts = np.zeros(data.n_rows, dtype=np.int64)
    patterns: list[Pattern] = []
    gains: list[float] = []
    total_nodes = 0

    while len(patterns) < max_patterns:
        active = coverage_counts < delta
        n_active = int(active.sum())
        if n_active == 0:
            break
        min_count = absolute_min_support(min_support, n_active)
        items, gain, nodes = _best_pattern(
            item_bits.words, label_words, order, pack_bits(active),
            min_count, max_length,
        )
        total_nodes += nodes
        if items is None:
            break
        covered = data.covers(items)
        patterns.append(Pattern(items=items, support=int(covered.sum())))
        gains.append(gain)
        # Sequential covering: only *correctly* covered rows advance, per
        # the same convention MMRFS uses.
        present = np.bincount(data.labels[covered], minlength=data.n_classes)
        majority = int(np.argmax(present))
        correct = covered & (data.labels == majority)
        if not (correct & active).any():
            break  # cannot make progress
        coverage_counts[correct] += 1

    return DirectMiningResult(
        patterns=patterns,
        gains=gains,
        coverage_counts=coverage_counts,
        nodes_explored=total_nodes,
        delta=delta,
    )
