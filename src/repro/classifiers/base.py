"""Classifier interface shared by every model in the package.

The paper's framework is deliberately model-agnostic: frequent-pattern
features feed "any learning algorithm" (Section 5).  All models here follow
a minimal fit/predict protocol over dense numpy arrays, so the pipeline can
swap SVM, C4.5, naive Bayes or logistic regression freely.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Classifier", "check_fitted", "validate_inputs"]


def validate_inputs(
    features: np.ndarray, labels: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Coerce (X, y) to float64 matrix / int32 vector and sanity-check."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError("features contain NaN or infinity")
    if labels is None:
        return features, None
    labels = np.asarray(labels, dtype=np.int32)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    if len(labels) != len(features):
        raise ValueError(
            f"{len(features)} rows but {len(labels)} labels"
        )
    if len(labels) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if labels.min() < 0:
        raise ValueError("labels must be non-negative integers")
    return features, labels


def check_fitted(model: "Classifier") -> None:
    if not getattr(model, "_fitted", False):
        raise RuntimeError(
            f"{type(model).__name__} must be fitted before prediction"
        )


class Classifier(ABC):
    """Abstract fit/predict classifier over dense binary/real features."""

    _fitted: bool = False

    @abstractmethod
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "Classifier":
        """Train on (n_rows, n_features) X and integer labels y."""

    @abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted integer labels for each row."""

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Mean accuracy on the given data."""
        features, labels = validate_inputs(features, labels)
        assert labels is not None
        return float((self.predict(features) == labels).mean())

    def clone(self) -> "Classifier":
        """A fresh unfitted copy with the same hyperparameters.

        Default implementation re-invokes ``__init__`` with the public
        constructor attributes stored by the subclass in ``_params``.
        """
        params = getattr(self, "_params", None)
        if params is None:
            raise NotImplementedError(
                f"{type(self).__name__} must set self._params in __init__ "
                "or override clone()"
            )
        return type(self)(**params)
