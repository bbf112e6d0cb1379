"""Feature selection: MMRFS (Algorithm 1) and the min_sup strategy."""

from .direct import DirectMiningResult, ddpmine
from .minsup import MinSupSuggestion, suggest_min_support
from .mmrfs import SelectedFeature, SelectionResult, mmrfs, top_k_by_relevance
from .relevance import (
    ChiSquareRelevance,
    FisherScoreRelevance,
    InformationGainRelevance,
    RelevanceMeasure,
    batch_relevance,
    get_relevance,
)

__all__ = [
    "mmrfs",
    "ddpmine",
    "DirectMiningResult",
    "top_k_by_relevance",
    "SelectedFeature",
    "SelectionResult",
    "RelevanceMeasure",
    "InformationGainRelevance",
    "FisherScoreRelevance",
    "ChiSquareRelevance",
    "get_relevance",
    "batch_relevance",
    "suggest_min_support",
    "MinSupSuggestion",
]
