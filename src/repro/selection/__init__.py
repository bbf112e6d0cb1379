"""Feature selection: MMRFS (Algorithm 1) and the min_sup strategy."""

from .direct import DirectMiningResult, ddpmine, ig_superset_bound
from .minsup import MinSupSuggestion, suggest_min_support
from .mmrfs import SelectedFeature, SelectionResult, mmrfs, top_k_by_relevance
from .redundancy import jaccard, weighted_jaccard_redundancy
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
    "ig_superset_bound",
    "top_k_by_relevance",
    "SelectedFeature",
    "SelectionResult",
    "jaccard",
    "weighted_jaccard_redundancy",
    "RelevanceMeasure",
    "InformationGainRelevance",
    "FisherScoreRelevance",
    "ChiSquareRelevance",
    "get_relevance",
    "batch_relevance",
    "suggest_min_support",
    "MinSupSuggestion",
]
