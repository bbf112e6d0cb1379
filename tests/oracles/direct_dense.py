"""Dense direct mining: DDPMine's branch and bound over a boolean matrix.

The reference the packed search in :mod:`repro.selection.direct` is
tested against.  Each node ANDs one dense ``(n_rows,)`` column into its
row mask, counts its support on the active rows and scores itself with
the scalar information gain; children are visited in the items'
descending-support order.  The subtree bound is this module's own scalar
loop over class subsets, written from the bound's definition rather than
imported, so a wrong library bound shows up as a mismatch.  With
``prune=True`` the two agree pattern for pattern, gain for gain and node
for node; ``prune=False`` searches every frequent itemset up to the
length cap, the answer a sound bound must not change.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.transactions import TransactionDataset
from repro.measures.entropy import binary_entropy, entropy
from repro.measures.vectorized import _VERTEX_CLASS_CAP
from repro.mining.itemsets import Pattern
from repro.selection.direct import DirectMiningResult
from tests.oracles.scoring import information_gain_from_counts


def subtree_bound(present: np.ndarray, class_totals: np.ndarray) -> float:
    """Largest IG over the class vertices of ``present``'s coverage.

    A vertex covers every ``present`` row of the classes in a proper,
    nonempty subset and none of the others.  Outside 2..cap classes the
    bound is ``min(h(min(theta, 1/2)), H(C))``.
    """
    m = len(class_totals)
    if not 2 <= m <= _VERTEX_CLASS_CAP:
        theta = present.sum() / max(class_totals.sum(), 1)
        return min(binary_entropy(min(theta, 0.5)), entropy(class_totals))
    best = 0.0
    for subset in range(1, 2**m - 1):
        covered = np.array(
            [present[c] if subset >> c & 1 else 0 for c in range(m)]
        )
        best = max(
            best, information_gain_from_counts(covered, class_totals - covered)
        )
    return best


def occurrence_matrix(
    transactions: Sequence[Sequence[int]], n_items: int
) -> np.ndarray:
    """Boolean (n_rows, n_items) matrix: cell (t, i) = item i in transaction t.

    The dense counterpart of :meth:`repro.core.bitset.BitMatrix.vertical`.
    """
    matrix = np.zeros((len(transactions), n_items), dtype=bool)
    for row, transaction in enumerate(transactions):
        matrix[row, list(transaction)] = True
    return matrix


def _best_pattern(
    matrix: np.ndarray,
    class_one_hot: np.ndarray,
    active: np.ndarray,
    min_count: int,
    max_length: int,
    frequent_items: np.ndarray,
    prune: bool,
) -> tuple[tuple[int, ...] | None, float, int]:
    """Branch-and-bound search for the max-IG itemset on the active rows."""
    class_totals = class_one_hot[active].sum(axis=0)
    best_items: tuple[int, ...] | None = None
    best_gain = 1e-12
    nodes = 0

    def descend(items: tuple[int, ...], rows: np.ndarray, next_index: int) -> None:
        nonlocal best_items, best_gain, nodes
        for position in range(next_index, len(frequent_items)):
            item = int(frequent_items[position])
            new_rows = rows & matrix[:, item]
            support = int(new_rows[active].sum())
            if support < min_count:
                continue
            nodes += 1
            new_items = items + (item,)
            present = class_one_hot[new_rows & active].sum(axis=0)
            absent = class_totals - present
            gain = information_gain_from_counts(present, absent)
            if gain > best_gain:
                best_gain = gain
                best_items = new_items
            if len(new_items) < max_length and (
                not prune or subtree_bound(present, class_totals) > best_gain
            ):
                descend(new_items, new_rows, position + 1)

    descend((), np.ones(matrix.shape[0], dtype=bool), 0)
    return best_items, float(best_gain), nodes


def ddpmine(
    data: TransactionDataset,
    min_support: float = 0.05,
    delta: int = 1,
    max_length: int = 4,
    max_patterns: int = 500,
    prune: bool = True,
) -> DirectMiningResult:
    """Direct discriminative pattern mining with sequential covering."""
    matrix = occurrence_matrix(data.transactions, n_items=data.n_items)
    class_one_hot = np.zeros((data.n_rows, data.n_classes), dtype=np.int64)
    class_one_hot[np.arange(data.n_rows), data.labels] = 1

    item_counts = matrix.sum(axis=0)
    order = np.argsort(-item_counts, kind="stable")
    frequent_items = order[item_counts[order] >= 1]

    coverage_counts = np.zeros(data.n_rows, dtype=np.int64)
    patterns: list[Pattern] = []
    gains: list[float] = []
    total_nodes = 0

    while len(patterns) < max_patterns:
        active = coverage_counts < delta
        n_active = int(active.sum())
        if n_active == 0:
            break
        min_count = max(1, int(np.ceil(min_support * n_active)))
        items, gain, nodes = _best_pattern(
            matrix,
            class_one_hot,
            active,
            min_count,
            max_length,
            frequent_items,
            prune,
        )
        total_nodes += nodes
        if items is None:
            break
        covered = matrix[:, list(items)].all(axis=1)
        patterns.append(Pattern(items=items, support=int(covered.sum())))
        gains.append(gain)
        present = class_one_hot[covered].sum(axis=0)
        majority = int(np.argmax(present))
        correct = covered & (data.labels == majority)
        if not (correct & active).any():
            break
        coverage_counts[correct] += 1

    return DirectMiningResult(
        patterns=patterns,
        gains=gains,
        coverage_counts=coverage_counts,
        nodes_explored=total_nodes,
        delta=delta,
    )
