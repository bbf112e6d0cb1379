"""Tests for naive Bayes (a model-agnosticism extra)."""

import numpy as np
import pytest

from repro.classifiers import BernoulliNaiveBayes


class TestNaiveBayes:
    def test_learns_skewed_features(self, rng):
        n = 400
        labels = rng.integers(0, 2, n)
        features = rng.random((n, 5))
        features[:, 0] = (rng.random(n) < np.where(labels == 1, 0.9, 0.1))
        features[:, 1] = (rng.random(n) < np.where(labels == 1, 0.2, 0.8))
        model = BernoulliNaiveBayes().fit(features, labels)
        assert model.score(features, labels) > 0.85

    def test_prior_dominates_with_no_signal(self, rng):
        labels = np.array([0] * 90 + [1] * 10)
        features = np.zeros((100, 3))
        model = BernoulliNaiveBayes().fit(features, labels)
        assert (model.predict(features) == 0).all()

    def test_log_proba_shape_and_order(self, rng):
        features = rng.integers(0, 2, size=(30, 4)).astype(float)
        labels = rng.integers(0, 3, 30)
        model = BernoulliNaiveBayes().fit(features, labels)
        scores = model.predict_log_proba(features)
        assert scores.shape == (30, len(model.classes_))
        assert (model.classes_[np.argmax(scores, axis=1)] == model.predict(features)).all()

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            BernoulliNaiveBayes(alpha=0.0)

    def test_clone(self):
        assert BernoulliNaiveBayes(alpha=2.0).clone().alpha == 2.0

    def test_smoothing_avoids_zero_probability(self):
        features = np.array([[1.0], [1.0], [0.0]])
        labels = np.array([1, 1, 0])
        model = BernoulliNaiveBayes().fit(features, labels)
        scores = model.predict_log_proba(np.array([[1.0]]))
        assert np.isfinite(scores).all()
