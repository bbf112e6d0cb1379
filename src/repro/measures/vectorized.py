"""Vectorized scoring kernels: whole candidate sets in single numpy passes.

Every selection path (MMRFS, top-k, direct IG filtering) scores patterns by
the same three measure families — information gain, Fisher score, chi².
This module evaluates each family over the batched ``(k, m)`` contingency
arrays of :func:`repro.measures.contingency.batch_contingency_tables` in
one numpy pass per measure.  The support-parameterized bounds of Section
3.1.2 are numpy kernels too; they live in :mod:`repro.measures.bounds`.

These kernels are the library's only scoring path.  The scalar
one-table-at-a-time definitions (IG, Fisher score and chi² on a
``PatternStats`` table) live with the tests in ``tests/oracles/scoring.py``
as the differential oracles.  Every kernel here mirrors its scalar twin's
conventions — ``0 log 0 = 0``, empty tables score 0, a perfectly
class-aligned feature has infinite Fisher score — and a hypothesis suite
(``tests/test_measures_vectorized.py``) pins scalar-vs-vectorized
agreement to 1e-12 including the degenerate rows (empty classes, support
0, support n, ``p ∈ {0, 1}`` priors); information gain agrees float for
float, because the oracle computes its entropies with a copy of this
module's row entropy, zero counts included.

The branch-and-bound searches (:func:`repro.selection.ddpmine` and
:class:`repro.streaming.TopKMiner`) prune with a different bound,
:func:`ig_subtree_bound`, which reads a node's per-class counts rather
than its support alone; :func:`score_covers` is their shared
child-scoring step.
"""

from __future__ import annotations

import numpy as np

from ..core.bitset import popcount
from ..obs import core as _obs
from .entropy import binary_entropy

__all__ = [
    "information_gain_batch",
    "fisher_score_batch",
    "chi2_batch",
    "ig_subtree_bound",
    "score_covers",
]

#: Largest class count for which :func:`ig_subtree_bound` scores every
#: class vertex (2^m - 2 of them); above it the support-only fallback runs.
_VERTEX_CLASS_CAP = 8
#: Vertex rows scored per pass, which caps the bound's transient memory.
_VERTEX_ROWS = 1 << 15


def _count_arrays(
    present: np.ndarray, absent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and float-cast a (k, m) present/absent count pair."""
    present = np.asarray(present, dtype=float)
    absent = np.asarray(absent, dtype=float)
    if present.shape != absent.shape or present.ndim != 2:
        raise ValueError(
            "present/absent must be matching (n_patterns, n_classes) arrays, "
            f"got {present.shape} and {absent.shape}"
        )
    session = _obs._ACTIVE
    if session is not None:
        session.add("measures.vectorized.batches", 1)
        session.add("measures.vectorized.patterns", present.shape[0])
    return present, absent


def _row_entropy(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each row of a count matrix; 0 for empty rows."""
    totals = counts.sum(axis=-1, keepdims=True)
    p = counts / np.where(totals > 0, totals, 1.0)
    logp = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return -(p * logp).sum(axis=-1)


def information_gain_batch(
    present: np.ndarray, absent: np.ndarray
) -> np.ndarray:
    """IG(C|X) of every pattern, from (k, m) contingency count arrays.

    Equals the scalar oracle's ``information_gain_from_counts`` row for
    row, float for float: empty tables score 0 and floating-point noise is
    clamped at 0.
    """
    return _information_gain(*_count_arrays(present, absent))


def _information_gain(present: np.ndarray, absent: np.ndarray) -> np.ndarray:
    """:func:`information_gain_batch` on float count arrays, uncounted."""
    n_present = present.sum(axis=1)
    n_absent = absent.sum(axis=1)
    n = n_present + n_absent
    safe_n = np.where(n > 0, n, 1.0)
    h_class = _row_entropy(present + absent)
    h_conditional = (n_present / safe_n) * _row_entropy(present) + (
        n_absent / safe_n
    ) * _row_entropy(absent)
    return np.where(n > 0, np.maximum(0.0, h_class - h_conditional), 0.0)


def fisher_score_batch(present: np.ndarray, absent: np.ndarray) -> np.ndarray:
    """Fisher score of every pattern, from (k, m) contingency count arrays.

    Matches the scalar oracle's ``fisher_score_from_counts``: zero
    within-class variance yields 0 when there is also no between-class
    scatter and ``inf`` for a perfectly class-aligned feature.
    """
    present, absent = _count_arrays(present, absent)
    n_per_class = present + absent
    n = n_per_class.sum(axis=1)
    mu_global = present.sum(axis=1) / np.where(n > 0, n, 1.0)
    mu = present / np.where(n_per_class > 0, n_per_class, 1.0)
    variance = mu * (1.0 - mu)
    numerator = (n_per_class * (mu - mu_global[:, np.newaxis]) ** 2).sum(axis=1)
    denominator = (n_per_class * variance).sum(axis=1)
    scores = np.where(
        denominator > 0.0,
        numerator / np.where(denominator > 0.0, denominator, 1.0),
        np.where(numerator <= 1e-15, 0.0, np.inf),
    )
    return np.where(n > 0, scores, 0.0)


def chi2_batch(present: np.ndarray, absent: np.ndarray) -> np.ndarray:
    """Normalized chi² of every pattern, from (k, m) contingency arrays.

    The 2 x m chi² statistic divided by n (zero-expected cells contribute
    0), the measure :class:`repro.selection.relevance.ChiSquareRelevance`
    scores with.
    """
    present, absent = _count_arrays(present, absent)
    observed = np.stack([present, absent], axis=1)
    n = observed.sum(axis=(1, 2))
    safe_n = np.where(n > 0, n, 1.0)
    row_totals = observed.sum(axis=2, keepdims=True)
    column_totals = observed.sum(axis=1, keepdims=True)
    expected = row_totals * column_totals / safe_n[:, np.newaxis, np.newaxis]
    terms = np.where(
        expected > 0,
        (observed - expected) ** 2 / np.where(expected > 0, expected, 1.0),
        0.0,
    )
    return np.where(n > 0, terms.sum(axis=(1, 2)) / safe_n, 0.0)


# ----------------------------------------------------------------------
# The subtree bound of the branch-and-bound searches.


def _class_vertices(m: int) -> np.ndarray:
    """``(2^m - 2, m)`` 0/1 rows: every proper, nonempty subset of m classes."""
    codes = np.arange(1, (1 << m) - 1)
    return ((codes[:, np.newaxis] >> np.arange(m)) & 1).astype(float)


def ig_subtree_bound(present: np.ndarray, class_totals: np.ndarray) -> np.ndarray:
    """Upper bound on the IG of every pattern covering a subset of each row's rows.

    Row ``j`` of the ``(k, m)`` array ``present`` holds a node's covered
    per-class counts, so a superset's counts lie in the box
    ``0 <= x <= present[j]``.  IG is convex in ``x``, so it peaks at a
    vertex of the box, each class covered fully or not at all; the bound
    is the best of the 2^m - 2 proper, nonempty class subsets (the empty
    one scores 0 and the full one never beats them all).  Outside 2 to
    ``_VERTEX_CLASS_CAP`` classes it is ``min(h(min(theta, 1/2)), H(C))``
    with ``theta`` the row's support fraction.  docs/THEORY.md §6 has the
    argument.
    """
    present = np.asarray(present, dtype=float)
    totals = np.asarray(class_totals, dtype=float)
    m = totals.size
    if not 2 <= m <= _VERTEX_CLASS_CAP:
        thetas = present.sum(axis=1) / max(totals.sum(), 1.0)
        return np.minimum(
            binary_entropy(np.minimum(thetas, 0.5)), _row_entropy(totals)
        )
    vertices = _class_vertices(m)
    bounds = np.empty(len(present))
    step = max(1, _VERTEX_ROWS // len(vertices))
    for lo in range(0, len(present), step):
        covered = (present[lo : lo + step, np.newaxis, :] * vertices).reshape(-1, m)
        gains = _information_gain(covered, totals - covered)
        bounds[lo : lo + step] = gains.reshape(-1, len(vertices)).max(axis=1)
    return bounds


def score_covers(
    covers: np.ndarray, label_words: np.ndarray, class_totals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class counts, IG and subtree bound of each packed cover.

    The child-scoring step both branch-and-bound searches share:
    ``covers`` is a ``(k, n_words)`` stack of children's tidsets (already
    restricted to the rows being searched), ``label_words`` the packed
    class masks and ``class_totals`` the per-class row counts of the
    searched rows.  Returns the ``(k, m)`` covered counts, each child's IG
    and its :func:`ig_subtree_bound`.
    """
    present = popcount(covers[:, np.newaxis, :] & label_words)
    gains = information_gain_batch(present, class_totals - present)
    return present, gains, ig_subtree_bound(present, class_totals)
