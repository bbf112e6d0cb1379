"""Entropy primitives (base-2, matching C4.5 and the paper's figures)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["entropy", "binary_entropy"]


def entropy(distribution: Sequence[float] | np.ndarray) -> float:
    """Shannon entropy H(C) in bits of a probability vector or count vector.

    Counts are normalized automatically; zero entries contribute 0 (the
    ``0 log 0 = 0`` convention).
    """
    values = np.asarray(distribution, dtype=float)
    if values.ndim != 1:
        raise ValueError("distribution must be 1-D")
    if (values < 0).any():
        raise ValueError("distribution entries must be non-negative")
    total = values.sum()
    if total == 0:
        return 0.0
    p = values / total
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def binary_entropy(p):
    """H(p) for a Bernoulli(p) class variable, in bits.

    ``p`` is a float or an array of them, all in [0, 1]; the result has
    its shape (a float returns a numpy ``float64``).  H(0) = H(1) = 0.
    """
    p = np.asarray(p, dtype=float)
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("p must be in [0, 1]")
    log_p = np.log2(p, out=np.zeros_like(p), where=p > 0)
    log_q = np.log2(1.0 - p, out=np.zeros_like(p), where=p < 1)
    # The leading 0.0 keeps H(0) and H(1) at +0.0 rather than -0.0.
    return (0.0 - p * log_p - (1.0 - p) * log_q)[()]
