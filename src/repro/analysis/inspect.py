"""Post-hoc analysis of fitted frequent-pattern classifiers.

What a practitioner asks after training: *which patterns carry the model?*
This module answers with per-feature weight attributions (for linear
models), per-pattern coverage/purity summaries, and the pairwise coverage
overlap of the selected set (the quantity MMRFS's redundancy term
controls).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..classifiers.linear_svm import LinearSVM
from ..classifiers.logistic import LogisticRegression
from ..core.bitset import pattern_covers, unpack_bits
from ..datasets.transactions import TransactionDataset
from ..features.pipeline import FrequentPatternClassifier
from ..measures.contingency import batch_contingency_tables
from ..measures.vectorized import information_gain_batch

__all__ = ["PatternSummary", "summarize_patterns", "feature_weights", "coverage_overlap"]


@dataclass(frozen=True)
class PatternSummary:
    """One selected pattern with its data-facing statistics."""

    items: tuple[int, ...]
    rendered: str
    support: int
    relative_support: float
    majority_class: int
    purity: float
    information_gain: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.rendered} support={self.support} "
            f"({100 * self.relative_support:.1f}%) class={self.majority_class} "
            f"purity={self.purity:.2f} IG={self.information_gain:.3f}"
        )


def summarize_patterns(
    pipeline: FrequentPatternClassifier,
    data: TransactionDataset,
) -> list[PatternSummary]:
    """Data-facing statistics for every selected pattern, IG-descending."""
    patterns = pipeline.selected_patterns
    if not patterns:
        return []
    tables = batch_contingency_tables(patterns, data)
    gains = information_gain_batch(tables.present, tables.absent)
    summaries = []
    rows = zip(patterns, tables.present, tables.thetas, gains)
    for pattern, present, theta, gain in rows:
        rendered = (
            data.catalog.describe(pattern.items)
            if data.catalog is not None
            else "{" + ",".join(map(str, pattern.items)) + "}"
        )
        support = int(present.sum())
        majority = int(np.argmax(present)) if support else 0
        purity = present[majority] / support if support else 0.0
        summaries.append(
            PatternSummary(
                items=pattern.items,
                rendered=rendered,
                support=support,
                relative_support=float(theta),
                majority_class=majority,
                purity=float(purity),
                information_gain=float(gain),
            )
        )
    summaries.sort(key=lambda s: -s.information_gain)
    return summaries


def feature_weights(
    pipeline: FrequentPatternClassifier,
    catalog=None,
) -> list[tuple[str, float]]:
    """|weight| attribution per feature for linear models, descending.

    For multiclass one-vs-rest models the max absolute weight across class
    rows is reported.  Raises ``TypeError`` for non-linear learners.
    """
    model = pipeline.model_
    if not isinstance(model, (LinearSVM, LogisticRegression)):
        raise TypeError(
            "feature_weights needs a linear model "
            f"(got {type(model).__name__})"
        )
    assert model.weights_ is not None and pipeline.featurizer_ is not None
    weights = np.abs(model.weights_)
    importance = weights.max(axis=0)

    names = pipeline.describe_features(catalog)
    # Linear models may carry a trailing bias column.
    importance = importance[: len(names)]
    ranked = sorted(zip(names, importance), key=lambda pair: -pair[1])
    return [(name, float(value)) for name, value in ranked]


def coverage_overlap(
    pipeline: FrequentPatternClassifier,
    data: TransactionDataset,
) -> np.ndarray:
    """Pairwise Jaccard overlap matrix of the selected patterns' coverage.

    MMRFS's redundancy term penalizes exactly these overlaps; a healthy
    selection has a low off-diagonal mean.
    """
    patterns = pipeline.selected_patterns
    n = len(patterns)
    if n == 0:
        return np.zeros((0, 0))
    coverage = np.empty((n, data.n_rows), dtype=np.float64)
    itemsets = [p.items for p in patterns]
    for start, covers in pattern_covers(data.item_bits(), itemsets):
        coverage[start : start + len(covers)] = unpack_bits(covers, data.n_rows)
    intersection = coverage @ coverage.T
    sizes = coverage.sum(axis=1)
    union = sizes[:, np.newaxis] + sizes[np.newaxis, :] - intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        overlap = np.where(union > 0, intersection / union, 0.0)
    return overlap
