"""Row-subset pattern matching: one set comparison per (row, pattern).

The reference the featurizer's packed cover plan and the compiled
model's ``match_matrix`` are tested against.  No bitsets, no grouping
by length: pattern ``j`` matches row ``r`` iff its items are a subset of
the row's items.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def subset_match_matrix(
    rows: Sequence[Sequence[int]], patterns: Sequence[Sequence[int]]
) -> np.ndarray:
    """Boolean (n_rows, n_patterns): ``set(pattern) <= set(row)``."""
    matrix = np.zeros((len(rows), len(patterns)), dtype=bool)
    for r, row in enumerate(rows):
        items = set(row)
        for j, pattern in enumerate(patterns):
            matrix[r, j] = set(pattern) <= items
    return matrix
