"""Information gain of a binary pattern feature (paper Eq. 1).

``IG(C|X) = H(C) - H(C|X)`` where X is the pattern's presence indicator.
Works for any number of classes; the theoretical bounds in
:mod:`repro.measures.bounds` specialize to the binary case the paper
analyzes.
"""

from __future__ import annotations

import numpy as np

from .contingency import PatternStats
from .vectorized import _row_entropy

__all__ = ["information_gain", "information_gain_from_counts"]


def information_gain_from_counts(
    present: np.ndarray | tuple[int, ...],
    absent: np.ndarray | tuple[int, ...],
) -> float:
    """IG from per-class counts on the x=1 and x=0 branches.

    The three entropies come from the batch kernel's row entropy, which
    keeps zero counts as ``0 log 0 = 0`` terms, so this equals
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
