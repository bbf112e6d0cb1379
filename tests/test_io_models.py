"""Tests for model and pipeline JSON persistence."""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.classifiers import (
    BernoulliNaiveBayes,
    DecisionTree,
    KernelSVM,
    LinearSVM,
    LogisticRegression,
)
from repro.features import FrequentPatternClassifier
from repro.datasets import TransactionDataset
from repro.io import load_pipeline, model_from_json, model_to_json, save_pipeline
from repro.io.models import pipeline_from_payload, pipeline_to_payload
from repro.serving.registry import ModelRegistry

#: A ``select_items=True`` pipeline written by an earlier release, with
#: its labels on a few rows and its registry model id.
PAYLOAD_FIXTURE = Path(__file__).parent / "data" / "pipeline_payload_v1.json"


@pytest.fixture(scope="module")
def training_data(rng=None):
    generator = np.random.default_rng(3)
    features = generator.integers(0, 2, size=(120, 6)).astype(float)
    labels = ((features[:, 0] == 1) & (features[:, 2] == 1)).astype(np.int32)
    return features, labels


class TestModelRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: LinearSVM(c=2.0),
            lambda: LogisticRegression(l2=0.1),
            lambda: BernoulliNaiveBayes(alpha=0.5),
            lambda: DecisionTree(max_depth=4),
        ],
        ids=["svm", "logistic", "nb", "tree"],
    )
    def test_predictions_preserved(self, factory, training_data):
        features, labels = training_data
        model = factory().fit(features, labels)
        restored = model_from_json(model_to_json(model))
        assert (restored.predict(features) == model.predict(features)).all()

    def test_hyperparameters_preserved(self, training_data):
        features, labels = training_data
        model = LinearSVM(c=7.5).fit(features, labels)
        restored = model_from_json(model_to_json(model))
        assert restored.c == 7.5

    def test_tree_structure_preserved(self, training_data):
        features, labels = training_data
        tree = DecisionTree().fit(features, labels)
        restored = model_from_json(model_to_json(tree))
        assert restored.n_nodes == tree.n_nodes

    def test_unsupported_model_rejected(self, training_data):
        features, labels = training_data
        model = KernelSVM(kernel="rbf").fit(features, labels)
        with pytest.raises(TypeError, match="not JSON-serializable"):
            model_to_json(model)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            model_from_json({"kind": "mystery"})


class TestPipelinePersistence:
    def test_round_trip_predictions(self, planted_transactions, tmp_path):
        pipeline = FrequentPatternClassifier(min_support=0.25, delta=2)
        pipeline.fit(planted_transactions)
        path = tmp_path / "pipeline.json"
        save_pipeline(pipeline, path)
        restored = load_pipeline(path)
        assert (
            restored.predict(planted_transactions)
            == pipeline.predict(planted_transactions)
        ).all()

    def test_patterns_preserved(self, planted_transactions):
        pipeline = FrequentPatternClassifier(min_support=0.25, delta=2)
        pipeline.fit(planted_transactions)
        buffer = io.StringIO()
        save_pipeline(pipeline, buffer)
        buffer.seek(0)
        restored = load_pipeline(buffer)
        assert [p.items for p in restored.selected_patterns] == [
            p.items for p in pipeline.selected_patterns
        ]

    def test_item_mask_preserved(self, planted_transactions):
        pipeline = FrequentPatternClassifier(
            use_patterns=False, select_items=True
        )
        pipeline.fit(planted_transactions)
        buffer = io.StringIO()
        save_pipeline(pipeline, buffer)
        buffer.seek(0)
        restored = load_pipeline(buffer)
        assert (restored.item_mask_ == pipeline.item_mask_).all()
        assert (
            restored.predict(planted_transactions)
            == pipeline.predict(planted_transactions)
        ).all()

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError, match="fitted"):
            save_pipeline(FrequentPatternClassifier(), io.StringIO())

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            load_pipeline(io.StringIO('{"format_version": 42}'))


class TestPayloadFixture:
    """A saved payload loads, predicts and re-serializes unchanged."""

    @pytest.fixture(scope="class")
    def fixture(self):
        return json.loads(PAYLOAD_FIXTURE.read_text())

    def test_predicts_recorded_labels(self, fixture):
        pipeline = pipeline_from_payload(fixture["pipeline"])
        assert pipeline.item_mask_ is not None and not pipeline.item_mask_.all()
        rows = fixture["rows"]
        data = TransactionDataset(
            rows, [0] * len(rows), n_items=fixture["pipeline"]["n_items"]
        )
        assert pipeline.predict(data).tolist() == fixture["labels"]

    def test_reserializes_to_the_same_content_key(self, fixture, tmp_path):
        pipeline = pipeline_from_payload(fixture["pipeline"])
        assert pipeline_to_payload(pipeline) == fixture["pipeline"]
        record = ModelRegistry(tmp_path).publish(pipeline, name=fixture["name"])
        assert record.model_id == fixture["content_key"]
