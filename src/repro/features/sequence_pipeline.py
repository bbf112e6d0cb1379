"""Frequent subsequence-based classification (paper Section 6, future work).

The itemset framework transfers verbatim to sequences: mine frequent
subsequences per class with PrefixSpan, score them with information gain,
select a discriminative low-redundancy subset under a coverage constraint
(the MMR gain of Algorithm 1, with coverage defined by subsequence
containment), and learn any classifier on
``symbol-presence features ∪ selected subsequences``.
"""

from __future__ import annotations

import numpy as np

from ..classifiers.base import Classifier
from ..classifiers.linear_svm import LinearSVM
from ..datasets.sequences import SequenceDataset
from ..mining.itemsets import check_mining_args
from ..mining.prefixspan import (
    SequencePattern,
    class_subsequences,
    containment_matrix,
)
from ..selection.mmrfs import mmrfs_indices

__all__ = ["SequencePatternClassifier"]


class SequencePatternClassifier:
    """Subsequence-feature classifier mirroring FrequentPatternClassifier.

    Parameters
    ----------
    classifier:
        Any :class:`~repro.classifiers.base.Classifier`; cloned at fit.
    min_support:
        Relative in-class support threshold for PrefixSpan.
    delta:
        Coverage threshold of the MMR selection (Algorithm 1 semantics).
    min_length, max_length:
        Subsequence length window for candidate features.
    max_selected:
        Hard cap on selected subsequences.
    """

    def __init__(
        self,
        classifier: Classifier | None = None,
        min_support: float = 0.2,
        delta: int = 3,
        min_length: int = 2,
        max_length: int = 4,
        max_selected: int | None = 200,
    ) -> None:
        check_mining_args(min_support)
        if delta < 1:
            raise ValueError("delta must be >= 1")
        self.classifier = classifier if classifier is not None else LinearSVM()
        self.min_support = min_support
        self.delta = delta
        self.min_length = min_length
        self.max_length = max_length
        self.max_selected = max_selected

        self.model_: Classifier | None = None
        self.selected_: list[SequencePattern] = []
        self.mined_count_: int = 0
        self.alphabet_size_: int = 0
        self._fitted = False

    # ------------------------------------------------------------------
    def _design(self, data: SequenceDataset) -> np.ndarray:
        """Symbol-presence block plus selected-subsequence block."""
        symbols = np.zeros((data.n_rows, self.alphabet_size_))
        for row_index, sequence in enumerate(data.sequences):
            for item in set(sequence):
                symbols[row_index, item] = 1.0
        patterns = [pattern.sequence for pattern in self.selected_]
        pattern_block = containment_matrix(patterns, data.sequences).T
        return np.hstack([symbols, pattern_block])

    def fit(self, data: SequenceDataset) -> "SequencePatternClassifier":
        self.alphabet_size_ = data.alphabet_size
        candidates = class_subsequences(
            data.sequences,
            data.labels,
            self.min_support,
            min_length=self.min_length,
            max_length=self.max_length,
        )
        self.mined_count_ = len(candidates)
        coverage = containment_matrix(candidates, data.sequences)
        chosen = mmrfs_indices(
            coverage, data.labels, data.n_classes, self.delta, self.max_selected
        )
        self.selected_ = [
            SequencePattern(candidates[i], int(coverage[i].sum())) for i in chosen
        ]
        design = self._design(data)
        self.model_ = self.classifier.clone()
        self.model_.fit(design, data.labels)
        self._fitted = True
        return self

    def predict(self, data: SequenceDataset) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("fit must be called before predict")
        assert self.model_ is not None
        return self.model_.predict(self._design(data))

    def score(self, data: SequenceDataset) -> float:
        return float((self.predict(data) == data.labels).mean())
