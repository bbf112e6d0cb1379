"""Scalar contingency scoring: one :class:`PatternStats` per pattern.

The reference the vectorized scoring path — :func:`repro.measures.
contingency.batch_contingency_tables` feeding the kernels of
:mod:`repro.measures.vectorized` — is tested against.  Each pattern's
coverage is its own :func:`and_reduce` over the dataset's item bitsets,
and each measure is evaluated on one table at a time: information gain
(paper Eq. 1), the Fisher score (Eq. 4) and the normalized chi².
:func:`and_reduce` is also the per-pattern reference of the padded cover
kernel (:class:`repro.core.bitset.CoverPlan`,
:func:`~repro.core.bitset.pattern_covers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.bitset import BitMatrix, packed_ones, popcount
from repro.datasets.transactions import TransactionDataset
from repro.measures.contingency import ContingencyTables
from repro.mining.itemsets import Pattern


@dataclass(frozen=True)
class PatternStats:
    """Contingency summary of one binary feature against the class labels.

    Attributes
    ----------
    present:
        Per-class counts among rows where the pattern is present
        (length = n_classes).
    absent:
        Per-class counts among rows where it is absent.
    """

    present: tuple[int, ...]
    absent: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return sum(self.present) + sum(self.absent)

    @property
    def support(self) -> int:
        """Absolute support |D_alpha|."""
        return sum(self.present)

    @property
    def theta(self) -> float:
        """Relative support P(x = 1)."""
        n = self.n_rows
        return self.support / n if n else 0.0

    @property
    def class_totals(self) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(self.present, self.absent))

    def prior(self, class_index: int = 1) -> float:
        """p = P(c = class_index)."""
        n = self.n_rows
        return self.class_totals[class_index] / n if n else 0.0

    def posterior(self, class_index: int = 1) -> float:
        """q = P(c = class_index | x = 1); 0 when support is 0."""
        support = self.support
        return self.present[class_index] / support if support else 0.0


def _row_entropy(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each row of a count matrix; 0 for empty rows."""
    totals = counts.sum(axis=-1, keepdims=True)
    p = counts / np.where(totals > 0, totals, 1.0)
    logp = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return -(p * logp).sum(axis=-1)


def information_gain_from_counts(
    present: np.ndarray | tuple[int, ...],
    absent: np.ndarray | tuple[int, ...],
) -> float:
    """IG from per-class counts on the x=1 and x=0 branches.

    The three entropies come from :func:`_row_entropy`, which keeps zero
    counts as ``0 log 0 = 0`` terms, so this equals
    :func:`~repro.measures.vectorized.information_gain_batch` float for
    float at any number of classes.
    """
    present = np.asarray(present, dtype=float)
    absent = np.asarray(absent, dtype=float)
    n_present = present.sum()
    n_absent = absent.sum()
    n = n_present + n_absent
    if n == 0:
        return 0.0
    h_class, h_present, h_absent = _row_entropy(
        np.stack([present + absent, present, absent])
    )
    gain = h_class - ((n_present / n) * h_present + (n_absent / n) * h_absent)
    # Clamp tiny negative values from floating-point noise.
    return max(0.0, float(gain))


def information_gain(stats: PatternStats) -> float:
    """IG(C|X) for a pattern's contingency statistics."""
    return information_gain_from_counts(stats.present, stats.absent)


def fisher_score_from_counts(
    present: np.ndarray | tuple[int, ...],
    absent: np.ndarray | tuple[int, ...],
) -> float:
    """Fisher score from per-class counts on the x=1 / x=0 branches."""
    present = np.asarray(present, dtype=float)
    absent = np.asarray(absent, dtype=float)
    n_per_class = present + absent
    n = n_per_class.sum()
    if n == 0:
        return 0.0

    active = n_per_class > 0
    mu_global = present.sum() / n
    mu = np.zeros_like(n_per_class)
    mu[active] = present[active] / n_per_class[active]
    variance = mu * (1.0 - mu)

    numerator = float((n_per_class * (mu - mu_global) ** 2).sum())
    denominator = float((n_per_class * variance).sum())
    if denominator <= 0.0:
        # Zero within-class variance: score is 0 when there is also no
        # between-class scatter (the paper's convention below Eq. 5) and
        # infinite for a perfectly class-aligned feature.
        return 0.0 if numerator <= 1e-15 else float("inf")
    return numerator / denominator


def fisher_score(stats: PatternStats) -> float:
    """Fisher score for a pattern's contingency statistics."""
    return fisher_score_from_counts(stats.present, stats.absent)


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
