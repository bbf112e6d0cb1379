"""Tests for the post-hoc analysis utilities."""

import numpy as np
import pytest

from repro.analysis import coverage_overlap, feature_weights, summarize_patterns
from repro.classifiers import DecisionTree, LinearSVM
from repro.features import FrequentPatternClassifier
from tests.oracles.scoring import information_gain_from_counts, pattern_stats


@pytest.fixture(scope="module")
def pipeline_and_data():
    from repro.datasets import SyntheticSpec, TransactionDataset, generate

    spec = SyntheticSpec(
        name="analysis", n_rows=300, n_attributes=8, n_classes=2,
        arity=3, pattern_attributes=3, combos_per_class=2,
        pattern_strength=0.9, single_attributes=1, seed=21,
    )
    data = TransactionDataset.from_dataset(generate(spec))
    pipeline = FrequentPatternClassifier(
        min_support=0.2, delta=2, classifier=LinearSVM()
    )
    pipeline.fit(data)
    return pipeline, data


class TestSummarizePatterns:
    def test_one_summary_per_pattern(self, pipeline_and_data):
        pipeline, data = pipeline_and_data
        summaries = summarize_patterns(pipeline, data)
        assert len(summaries) == len(pipeline.selected_patterns)

    def test_sorted_by_information_gain(self, pipeline_and_data):
        pipeline, data = pipeline_and_data
        gains = [s.information_gain for s in summarize_patterns(pipeline, data)]
        assert gains == sorted(gains, reverse=True)

    def test_statistics_consistent(self, pipeline_and_data):
        pipeline, data = pipeline_and_data
        for summary in summarize_patterns(pipeline, data):
            assert summary.support == data.support_count(summary.items)
            assert 0.0 <= summary.purity <= 1.0
            assert summary.rendered.startswith("{")

    def test_information_gain_equals_scalar_oracle(self, pipeline_and_data):
        """The batch kernel's IG equals the scalar oracle's, float for float."""
        pipeline, data = pipeline_and_data
        summaries = summarize_patterns(pipeline, data)
        assert summaries
        for summary in summaries:
            stats = pattern_stats(summary.items, data)
            assert summary.information_gain == information_gain_from_counts(
                stats.present, stats.absent
            )

    def test_empty_pipeline(self, pipeline_and_data):
        _, data = pipeline_and_data
        empty = FrequentPatternClassifier(use_patterns=False)
        empty.fit(data)
        assert summarize_patterns(empty, data) == []


class TestFeatureWeights:
    def test_all_features_ranked(self, pipeline_and_data):
        pipeline, data = pipeline_and_data
        ranked = feature_weights(pipeline, data.catalog)
        expected = data.n_items + len(pipeline.selected_patterns)
        assert len(ranked) == expected
        values = [value for _, value in ranked]
        assert values == sorted(values, reverse=True)
        assert all(value >= 0 for value in values)

    def test_pattern_features_matter(self, pipeline_and_data):
        """On planted data, some pattern feature outranks the median item."""
        pipeline, data = pipeline_and_data
        ranked = feature_weights(pipeline, data.catalog)
        values = dict(ranked)
        pattern_values = [v for name, v in ranked if name.startswith("pattern:")]
        item_values = [v for name, v in ranked if not name.startswith("pattern:")]
        assert max(pattern_values) > np.median(item_values)

    def test_nonlinear_model_rejected(self, pipeline_and_data):
        _, data = pipeline_and_data
        tree = FrequentPatternClassifier(
            min_support=0.25, classifier=DecisionTree()
        )
        tree.fit(data)
        with pytest.raises(TypeError, match="linear"):
            feature_weights(tree)


class TestCoverageOverlap:
    def test_shape_and_diagonal(self, pipeline_and_data):
        pipeline, data = pipeline_and_data
        overlap = coverage_overlap(pipeline, data)
        n = len(pipeline.selected_patterns)
        assert overlap.shape == (n, n)
        assert np.allclose(np.diag(overlap), 1.0)
        assert np.allclose(overlap, overlap.T)
        assert (overlap >= 0).all() and (overlap <= 1 + 1e-12).all()

    def test_mmrfs_keeps_overlap_below_identical(self, pipeline_and_data):
        pipeline, data = pipeline_and_data
        overlap = coverage_overlap(pipeline, data)
        n = overlap.shape[0]
        if n > 1:
            off_diagonal = overlap[~np.eye(n, dtype=bool)]
            assert off_diagonal.mean() < 0.9

    def test_empty(self, pipeline_and_data):
        _, data = pipeline_and_data
        empty = FrequentPatternClassifier(use_patterns=False)
        empty.fit(data)
        assert coverage_overlap(empty, data).shape == (0, 0)
