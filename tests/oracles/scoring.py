"""Scalar contingency scoring: one :class:`PatternStats` per pattern.

The reference the vectorized scoring path — :func:`repro.measures.
contingency.batch_contingency_tables` feeding the kernels of
:mod:`repro.measures.vectorized` — is tested against.  Each pattern's
coverage is its own :func:`and_reduce` over the dataset's item bitsets,
and each measure is evaluated on one table at a time.  :func:`and_reduce`
is also the per-pattern reference of the padded cover kernel
(:class:`repro.core.bitset.CoverPlan`, :func:`~repro.core.bitset.pattern_covers`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.bitset import BitMatrix, packed_ones, popcount
from repro.datasets.transactions import TransactionDataset
from repro.measures.contingency import ContingencyTables, PatternStats
from repro.mining.itemsets import Pattern


def and_reduce(item_bits: BitMatrix, items: Iterable[int]) -> np.ndarray:
    """AND of the masks ``items`` of ``item_bits``; all ones when empty."""
    items = list(items)
    if not items:
        return packed_ones(item_bits.n_bits)
    return np.bitwise_and.reduce(item_bits.words[items], axis=0)


def row_stats(tables: ContingencyTables, index: int) -> PatternStats:
    """The scalar view of one row of ``tables``."""
    return PatternStats(
        present=tuple(int(c) for c in tables.present[index]),
        absent=tuple(int(c) for c in tables.absent[index]),
    )


def to_stats(tables: ContingencyTables) -> list[PatternStats]:
    """Scalar views of every row of ``tables``."""
    return [row_stats(tables, i) for i in range(len(tables))]


def pattern_stats(
    pattern: Pattern | Iterable[int], data: TransactionDataset
) -> PatternStats:
    """Contingency table of one pattern from its dense row mask."""
    items = pattern.items if isinstance(pattern, Pattern) else tuple(pattern)
    mask = data.covers(items)
    present = np.bincount(data.labels[mask], minlength=data.n_classes)
    absent = np.bincount(data.labels[~mask], minlength=data.n_classes)
    return PatternStats(
        present=tuple(int(c) for c in present),
        absent=tuple(int(c) for c in absent),
    )


def batch_pattern_stats(
    patterns: Sequence[Pattern], data: TransactionDataset
) -> list[PatternStats]:
    """Contingency tables of many patterns, one :func:`and_reduce` each."""
    item_bits = data.item_bits()
    label_words = data.label_bits().words
    class_totals = data.class_counts().astype(np.int64)
    stats = []
    for pattern in patterns:
        present = popcount(label_words & and_reduce(item_bits, pattern.items))
        stats.append(
            PatternStats(
                present=tuple(int(c) for c in present),
                absent=tuple(int(c) for c in class_totals - present),
            )
        )
    return stats


def chi2(stats: PatternStats) -> float:
    """Normalized chi-square of one 2 x m table (chi-square / n)."""
    observed = np.array([stats.present, stats.absent], dtype=float)
    n = observed.sum()
    if n == 0:
        return 0.0
    row_totals = observed.sum(axis=1, keepdims=True)
    column_totals = observed.sum(axis=0, keepdims=True)
    expected = row_totals @ column_totals / n
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
    return float(terms.sum() / n)
