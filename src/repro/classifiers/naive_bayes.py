"""Bernoulli naive Bayes over binary pattern features.

Included to demonstrate the framework's model-agnosticism ("any learning
algorithm can be used", paper Section 5): the same transformed feature space
feeds SVM, C4.5, naive Bayes and logistic regression interchangeably.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_fitted, validate_inputs

__all__ = ["BernoulliNaiveBayes"]


class BernoulliNaiveBayes(Classifier):
    """Naive Bayes with Bernoulli likelihoods and Laplace smoothing.

    Parameters
    ----------
    alpha:
        Additive smoothing strength (alpha = 1 is Laplace).
    binarize:
        Features > this threshold count as "present".
    """

    def __init__(self, alpha: float = 1.0, binarize: float = 0.5) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self.binarize = binarize
        self._params = dict(alpha=alpha, binarize=binarize)
        self.classes_: np.ndarray | None = None
        self.log_prior_: np.ndarray | None = None
        self.log_theta_: np.ndarray | None = None  # log P(x=1 | c)
        self.log_one_minus_theta_: np.ndarray | None = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "BernoulliNaiveBayes":
        features, labels = validate_inputs(features, labels)
        assert labels is not None
        binary = (features > self.binarize).astype(np.float64)
        self.classes_ = np.unique(labels)

        priors = []
        thetas = []
        for class_label in self.classes_:
            mask = labels == class_label
            n_class = int(mask.sum())
            priors.append(n_class / len(labels))
            counts = binary[mask].sum(axis=0)
            thetas.append((counts + self.alpha) / (n_class + 2 * self.alpha))

        theta = np.stack(thetas)
        self.log_prior_ = np.log(np.asarray(priors))
        self.log_theta_ = np.log(theta)
        self.log_one_minus_theta_ = np.log1p(-theta)
        self._fitted = True
        return self

    def predict_log_proba(self, features: np.ndarray) -> np.ndarray:
        """Unnormalized per-class log posterior for each row."""
        check_fitted(self)
        features, _ = validate_inputs(features)
        binary = (features > self.binarize).astype(np.float64)
        assert (
            self.log_prior_ is not None
            and self.log_theta_ is not None
            and self.log_one_minus_theta_ is not None
        )
        scores = (
            binary @ self.log_theta_.T
            + (1.0 - binary) @ self.log_one_minus_theta_.T
        )
        return scores + self.log_prior_[np.newaxis, :]

    def predict(self, features: np.ndarray) -> np.ndarray:
        assert self.classes_ is not None or check_fitted(self)
        scores = self.predict_log_proba(features)
        return self.classes_[np.argmax(scores, axis=1)].astype(np.int32)
