"""Redundancy measure R between patterns (paper Definition 4 and Eq. 9).

The paper uses a relevance-weighted Jaccard coefficient over pattern
*coverage* (the rows containing each pattern):

    R(alpha, beta) = P(alpha, beta) / (P(alpha) + P(beta) - P(alpha, beta))
                     * min(S(alpha), S(beta))

Coverage-based (not item-based) overlap is what makes a non-closed pattern
completely redundant w.r.t. its closure: their coverages are identical, so
the Jaccard term is 1 and R equals the smaller relevance.
"""

from __future__ import annotations

import numpy as np

from ..core.bitset import intersection_counts

__all__ = [
    "jaccard",
    "weighted_jaccard_redundancy",
    "batch_redundancy_packed",
]


def jaccard(count_a: int, count_b: int, count_both: int) -> float:
    """Jaccard coefficient from absolute coverage counts."""
    if count_both < 0 or count_a < count_both or count_b < count_both:
        raise ValueError(
            f"inconsistent counts: |a|={count_a}, |b|={count_b}, "
            f"|a∩b|={count_both}"
        )
    union = count_a + count_b - count_both
    if union == 0:
        return 0.0
    return count_both / union


def weighted_jaccard_redundancy(
    count_a: int,
    count_b: int,
    count_both: int,
    relevance_a: float,
    relevance_b: float,
) -> float:
    """R(alpha, beta) of Eq. 9, from counts and the two relevances."""
    return jaccard(count_a, count_b, count_both) * min(relevance_a, relevance_b)


def batch_redundancy_packed(
    coverage_words: np.ndarray,
    supports: np.ndarray,
    relevances: np.ndarray,
    new_words: np.ndarray,
    new_support: int,
    new_relevance: float,
) -> np.ndarray:
    """R(alpha_k, beta) for every candidate alpha_k against one pattern beta.

    ``coverage_words`` is the uint64-packed coverage matrix
    (n_candidates, n_words) and ``new_words`` the packed mask of the newly
    selected pattern beta; ``supports``/``relevances`` are per candidate.
    The joint counts are one AND + popcount, so MMRFS's per-acceptance
    update is O(n_candidates * n_words).
    """
    if new_support == 0:
        return np.zeros(len(supports), dtype=float)
    joint = intersection_counts(coverage_words, new_words).astype(float)
    union = supports.astype(float) + float(new_support) - joint
    with np.errstate(divide="ignore", invalid="ignore"):
        jaccard_values = np.where(union > 0, joint / union, 0.0)
    return jaccard_values * np.minimum(relevances, new_relevance)
