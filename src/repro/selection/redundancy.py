"""Redundancy measure R between patterns (paper Definition 4 and Eq. 9).

The paper uses a relevance-weighted Jaccard coefficient over pattern
*coverage* (the rows containing each pattern):

    R(alpha, beta) = P(alpha, beta) / (P(alpha) + P(beta) - P(alpha, beta))
                     * min(S(alpha), S(beta))

Coverage-based (not item-based) overlap is what makes a non-closed pattern
completely redundant w.r.t. its closure: their coverages are identical, so
the Jaccard term is 1 and R equals the smaller relevance.

:func:`batch_redundancy_packed` is the library's one implementation of
Eq. 9: MMRFS refreshes every candidate's redundancy against each accepted
pattern with it.  The one-pair scalar form is the test oracle in
``tests/oracles/bounds.py``.
"""

from __future__ import annotations

import numpy as np

from ..core.bitset import and_popcount

__all__ = ["batch_redundancy_packed"]


def batch_redundancy_packed(
    coverage_words: np.ndarray,
    supports: np.ndarray,
    relevances: np.ndarray,
    new_words: np.ndarray,
    new_support: int,
    new_relevance: float,
) -> np.ndarray:
    """R(alpha_k, beta) for every candidate alpha_k against one pattern beta.

    ``coverage_words`` is the word-major packed coverage stack
    ``(n_words, n_candidates)`` (column k is candidate k's mask) and
    ``new_words`` the ``(n_words,)`` packed mask of the newly selected
    pattern beta; ``supports``/``relevances`` are per candidate.  The
    joint counts are one :func:`~repro.core.bitset.and_popcount`, so
    MMRFS's per-acceptance update is O(n_candidates * n_words).
    """
    if new_support == 0:
        return np.zeros(len(supports), dtype=float)
    joint = and_popcount(coverage_words, new_words[:, np.newaxis]).astype(float)
    union = supports.astype(float) + float(new_support) - joint
    with np.errstate(divide="ignore", invalid="ignore"):
        jaccard_values = np.where(union > 0, joint / union, 0.0)
    return jaccard_values * np.minimum(relevances, new_relevance)
