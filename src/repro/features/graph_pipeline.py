"""Frequent subgraph-based classification (paper Section 6, future work).

The itemset framework over graphs: mine frequent connected subgraphs per
class with the gSpan-style miner, score them with information gain, select
a discriminative low-redundancy subset under the coverage constraint of
Algorithm 1 (coverage = label-preserving subgraph containment), and learn
any classifier on the subgraph-indicator feature space — the workflow of
Deshpande, Kuramochi & Karypis [7] with the paper's selection machinery.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from ..classifiers.base import Classifier
from ..classifiers.linear_svm import LinearSVM
from ..datasets.graphs import GraphDataset
from ..mining.gspan import GraphPattern, contains_subgraph, gspan
from ..selection.mmrfs import mmrfs_indices

__all__ = ["GraphPatternClassifier"]


class GraphPatternClassifier:
    """Subgraph-feature classifier mirroring FrequentPatternClassifier.

    Parameters
    ----------
    classifier:
        Any :class:`~repro.classifiers.base.Classifier`; cloned at fit.
    min_support:
        Relative in-class support threshold for the subgraph miner.
    delta:
        Coverage threshold of the MMR selection.
    min_edges, max_edges:
        Pattern size window (in edges).
    max_selected:
        Hard cap on selected subgraphs.
    """

    def __init__(
        self,
        classifier: Classifier | None = None,
        min_support: float = 0.3,
        delta: int = 2,
        min_edges: int = 1,
        max_edges: int = 3,
        max_selected: int | None = 100,
    ) -> None:
        if not 0.0 < min_support <= 1.0:
            raise ValueError("min_support is relative and must be in (0, 1]")
        if delta < 1:
            raise ValueError("delta must be >= 1")
        self.classifier = classifier if classifier is not None else LinearSVM()
        self.min_support = min_support
        self.delta = delta
        self.min_edges = min_edges
        self.max_edges = max_edges
        self.max_selected = max_selected

        self.model_: Classifier | None = None
        self.selected_: list[GraphPattern] = []
        self.mined_count_: int = 0
        self._fitted = False

    # ------------------------------------------------------------------
    def _mine_candidates(self, data: GraphDataset) -> list[nx.Graph]:
        merged: list[nx.Graph] = []
        signatures: set[str] = set()
        for _, graphs in sorted(data.class_partition().items()):
            if not graphs:
                continue
            absolute = max(1, int(np.ceil(self.min_support * len(graphs))))
            mined = gspan(graphs, min_support=absolute, max_edges=self.max_edges)
            for pattern in mined:
                if pattern.n_edges < self.min_edges:
                    continue
                signature = pattern.signature()
                if signature not in signatures:
                    signatures.add(signature)
                    merged.append(pattern.graph)
        return merged

    @staticmethod
    def _coverage_matrix(
        candidates: list[nx.Graph], data: GraphDataset
    ) -> np.ndarray:
        matrix = np.zeros((len(candidates), data.n_rows), dtype=bool)
        for pattern_index, pattern in enumerate(candidates):
            for row_index, host in enumerate(data.graphs):
                if contains_subgraph(host, pattern):
                    matrix[pattern_index, row_index] = True
        return matrix

    # ------------------------------------------------------------------
    def _design(self, data: GraphDataset) -> np.ndarray:
        design = np.zeros((data.n_rows, len(self.selected_)))
        for column, pattern in enumerate(self.selected_):
            for row_index, host in enumerate(data.graphs):
                if contains_subgraph(host, pattern.graph):
                    design[row_index, column] = 1.0
        return design

    def fit(self, data: GraphDataset) -> "GraphPatternClassifier":
        candidates = self._mine_candidates(data)
        self.mined_count_ = len(candidates)
        coverage = self._coverage_matrix(candidates, data)
        chosen = mmrfs_indices(
            coverage, data.labels, data.n_classes, self.delta, self.max_selected
        )
        self.selected_ = [
            GraphPattern(candidates[i], int(coverage[i].sum())) for i in chosen
        ]
        design = self._design(data)
        if design.shape[1] == 0:
            design = np.zeros((data.n_rows, 1))
        self.model_ = self.classifier.clone()
        self.model_.fit(design, data.labels)
        self._fitted = True
        return self

    def predict(self, data: GraphDataset) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("fit must be called before predict")
        assert self.model_ is not None
        design = self._design(data)
        if design.shape[1] == 0:
            design = np.zeros((data.n_rows, 1))
        return self.model_.predict(design)

    def score(self, data: GraphDataset) -> float:
        return float((self.predict(data) == data.labels).mean())
