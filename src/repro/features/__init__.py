"""Feature mapping and the end-to-end pattern-based classifiers."""

from .pipeline import FrequentPatternClassifier
from .transformer import PatternFeaturizer

__all__ = [
    "PatternFeaturizer",
    "FrequentPatternClassifier",
]
