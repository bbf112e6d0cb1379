"""Relevance measures S for feature selection (paper Definition 3).

A relevance measure models a pattern's discriminative power w.r.t. the
class label as a function of its contingency table.  The paper names
information gain and Fisher score as the two instances; both are provided,
plus normalized chi-square and a registry for lookup by name.

A measure is any object with ``batch(tables)``: it scores a whole
:class:`~repro.measures.contingency.ContingencyTables` set in one
vectorized numpy pass via :mod:`repro.measures.vectorized`.
"""

from __future__ import annotations

import time
from typing import Callable, Protocol

import numpy as np

from ..measures.contingency import ContingencyTables
from ..measures.vectorized import (
    chi2_batch,
    fisher_score_batch,
    information_gain_batch,
)
from ..obs import core as _obs

__all__ = [
    "RelevanceMeasure",
    "InformationGainRelevance",
    "FisherScoreRelevance",
    "ChiSquareRelevance",
    "get_relevance",
    "batch_relevance",
]


class RelevanceMeasure(Protocol):
    """Scores every pattern of a contingency-table batch."""

    def batch(self, tables: ContingencyTables) -> np.ndarray: ...


class InformationGainRelevance:
    """S(alpha) = IG(C | alpha-presence)."""

    name = "information_gain"

    def batch(self, tables: ContingencyTables) -> np.ndarray:
        return information_gain_batch(tables.present, tables.absent)


class FisherScoreRelevance:
    """S(alpha) = Fisher score of alpha-presence.

    Unbounded scores (perfect class alignment) are capped so the MMR gain
    arithmetic stays finite.
    """

    name = "fisher"

    def __init__(self, cap: float = 1e6) -> None:
        self.cap = cap

    def batch(self, tables: ContingencyTables) -> np.ndarray:
        return np.minimum(
            self.cap, fisher_score_batch(tables.present, tables.absent)
        )


class ChiSquareRelevance:
    """S(alpha) = normalized chi-square of alpha-presence vs the class.

    The measure CMAR ranks rules by, normalized by n so values are
    comparable across datasets (it equals the phi-squared / Cramer-like
    association strength for the 2 x m table).
    """

    name = "chi2"

    def batch(self, tables: ContingencyTables) -> np.ndarray:
        return chi2_batch(tables.present, tables.absent)


_REGISTRY: dict[str, Callable[[], RelevanceMeasure]] = {
    "information_gain": InformationGainRelevance,
    "ig": InformationGainRelevance,
    "fisher": FisherScoreRelevance,
    "chi2": ChiSquareRelevance,
}


def get_relevance(name: str | RelevanceMeasure) -> RelevanceMeasure:
    """Resolve a relevance measure by name, or pass one through.

    Raises ``KeyError`` for an unknown name and ``TypeError`` for an object
    without a ``batch`` method.
    """
    if not isinstance(name, str):
        if callable(getattr(name, "batch", None)):
            return name
        raise TypeError(
            "a relevance measure is a registered name or an object with "
            f"batch(tables), got {type(name).__name__}"
        )
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown relevance measure {name!r}; "
            f"available: {', '.join(sorted(set(_REGISTRY)))}"
        ) from None


def batch_relevance(
    measure: RelevanceMeasure, tables: ContingencyTables
) -> np.ndarray:
    """Relevance of every pattern in a batch: one ``measure.batch`` call.

    Records the per-pattern scoring latency (the batch mean) when an obs
    session is active, and rejects a result that is not one score per row.
    """
    session = _obs._ACTIVE
    score_start = time.perf_counter() if session is not None else 0.0
    scores = np.asarray(measure.batch(tables), dtype=float)
    if scores.shape != (len(tables),):
        raise ValueError(
            f"batch relevance must return {len(tables)} scores, "
            f"got shape {scores.shape}"
        )
    # One histogram observation per batch keeps the instrument cost off the
    # rows while the distribution still separates cheap single-pattern
    # probes from bulk candidate scans.
    if session is not None and len(tables):
        session.observe(
            "measures.scoring.pattern_latency_s",
            (time.perf_counter() - score_start) / len(tables),
        )
    return scores
