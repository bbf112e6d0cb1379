"""Unit tests for the compiled serving matcher and fused prediction.

The exhaustive randomized parity checks live in
``test_serving_differential.py``; this module pins the concrete
behaviors — ingestion sanitization, chunking, every supported learner
(fused and fallback), probability parity, construction validation, and
the batch-vs-serving ingestion contract.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro import obs
from repro.classifiers.naive_bayes import BernoulliNaiveBayes
from repro.core import bitset
from repro.core.bitset import pack_transactions
from repro.datasets import TransactionDataset
from repro.features.pipeline import FrequentPatternClassifier
from repro.features.transformer import PatternFeaturizer
from repro.mining.itemsets import Pattern
from repro.serving import CompiledModel, compile_model, sanitize_transactions
from tests.oracles.matching import subset_match_matrix
from tests.serving_common import MODEL_KINDS, fitted_pipeline


def design_path(pipeline, rows):
    """The reference labels: the learner on the exact float64 design."""
    return pipeline.model_.predict(pipeline.featurizer_.transform(rows))


class TestSanitize:
    def test_drops_out_of_range_ids_and_counts_them(self):
        cleaned, dropped = sanitize_transactions([(0, 5, 99), (-1, 2)], 6)
        assert cleaned == [(0, 5), (2,)]
        assert dropped == 2

    def test_dedupes_and_sorts_without_counting_duplicates(self):
        cleaned, dropped = sanitize_transactions([(3, 1, 3, 1)], 6)
        assert cleaned == [(1, 3)]
        assert dropped == 0

    def test_empty_inputs(self):
        assert sanitize_transactions([], 6) == ([], 0)
        assert sanitize_transactions([()], 6) == ([()], 0)


class TestMatcher:
    def test_matches_featurizer_on_clean_input(self):
        pipeline, data = fitted_pipeline("svm")
        compiled = compile_model(pipeline)
        expected = subset_match_matrix(
            data.transactions, [p.items for p in compiled.patterns]
        )
        featurizer_matches = pipeline.featurizer_.match_matrix(data.transactions)
        assert np.array_equal(featurizer_matches, expected)
        got = compiled.match_matrix(data.transactions)
        assert got.dtype == bool
        assert np.array_equal(got, expected)

    def test_chunking_is_invisible(self):
        pipeline, data = fitted_pipeline("svm")
        whole = compile_model(pipeline).match_matrix(data.transactions)
        tiny_chunks = compile_model(pipeline, chunk_rows=3).match_matrix(
            data.transactions
        )
        assert np.array_equal(whole, tiny_chunks)

    def test_unknown_items_are_ignored_not_fatal(self):
        pipeline, _ = fitted_pipeline("svm")
        compiled = compile_model(pipeline)
        noisy = [(0, 1, compiled.n_items + 40), (compiled.n_items,)]
        clean = [(0, 1), ()]
        assert np.array_equal(
            compiled.match_matrix(noisy), compiled.match_matrix(clean)
        )

    def test_empty_pattern_matches_every_row(self):
        featurizer = PatternFeaturizer(
            n_items=4,
            patterns=[Pattern(items=(), support=1), Pattern(items=(2,), support=1)],
        )
        compiled = CompiledModel(featurizer, BernoulliNaiveBayes())
        matrix = compiled.match_matrix([(0,), (2,), ()])
        assert matrix[:, 0].all()
        assert matrix[:, 1].tolist() == [False, True, False]

    def test_empty_batch(self):
        pipeline, _ = fitted_pipeline("svm")
        compiled = compile_model(pipeline)
        assert compiled.match_matrix([]).shape == (0, compiled.n_patterns)
        assert compiled.predict([]).shape == (0,)


class TestPredictionParity:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predict_matches_pipeline(self, kind):
        pipeline, data = fitted_pipeline(kind)
        compiled = compile_model(pipeline)
        expected = design_path(pipeline, data)
        got = compiled.predict(data.transactions)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(pipeline.predict(data), expected)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predict_matches_under_tiny_chunks(self, kind):
        pipeline, data = fitted_pipeline(kind)
        compiled = compile_model(pipeline, chunk_rows=7)
        expected = design_path(pipeline, data)
        assert np.array_equal(compiled.predict(data.transactions), expected)
        # A dataset is chunked in whole words of its cached item bits.
        assert np.array_equal(compiled.labels(data), expected)

    def test_item_mask_pipeline_parity(self):
        pipeline, data = fitted_pipeline("svm", select_items=True)
        assert pipeline.item_mask_ is not None  # the masked design path
        compiled = compile_model(pipeline)
        expected = design_path(pipeline, data)
        assert np.array_equal(compiled.predict(data.transactions), expected)
        assert np.array_equal(pipeline.predict(data), expected)

    def test_exact_tie_takes_the_design_label(self):
        # Both classes score exactly the same on the empty row; the fused
        # sums and the learner's own sums round that tie differently.
        db = [((0,), 1), ((0, 1, 2), 0), ((1,), 0), ((0, 1, 2), 1)]
        data = TransactionDataset([r for r, _ in db], [y for _, y in db], n_items=10)
        pipeline = FrequentPatternClassifier(
            classifier=BernoulliNaiveBayes(),
            min_support=0.4,
            selection="topk",
            top_k=8,
            max_length=3,
        ).fit(data)
        expected = design_path(pipeline, [()])
        compiled = compile_model(pipeline)
        assert np.array_equal(compiled.predict([()]), expected)
        # Packed request bits take the same fallback, with no row tuples:
        # the design is built from the featurizer's packed features.
        rows = [(), (0, 99), (-4,)]
        item_bits, dropped = pack_transactions(rows, compiled.n_items)
        assert dropped == 2
        assert compiled._near_tie(compiled.decision_scores(item_bits))
        sanitized, _ = sanitize_transactions(rows, compiled.n_items)
        expected = design_path(pipeline, sanitized)
        assert np.array_equal(compiled.predict(item_bits, sanitize=False), expected)
        assert np.array_equal(compiled.labels(item_bits), expected)

    def test_fused_kinds(self):
        for kind, fused in (
            ("svm", True),
            ("logistic", True),
            ("naive_bayes", True),
            ("tree", False),
        ):
            pipeline, _ = fitted_pipeline(kind)
            assert compile_model(pipeline).fused is fused

    def test_nonidentity_binarize_falls_back_to_exact_design(self):
        pipeline, data = fitted_pipeline("naive_bayes")
        model = pipeline.model_
        original = model.binarize
        model.binarize = -1.0  # every feature re-binarizes to 1
        try:
            compiled = compile_model(pipeline)
            assert not compiled.fused
            assert np.array_equal(
                compiled.predict(data.transactions), design_path(pipeline, data)
            )
        finally:
            model.binarize = original

    def test_decision_scores_match_fused_prediction(self):
        pipeline, data = fitted_pipeline("naive_bayes")
        compiled = compile_model(pipeline)
        scores = compiled.decision_scores(data.transactions)
        assert scores.shape == (data.n_rows, 2)
        labels = compiled.model.classes_[np.argmax(scores, axis=1)]
        assert np.array_equal(labels, compiled.predict(data.transactions))

    def test_decision_scores_rejects_unfused(self):
        pipeline, _ = fitted_pipeline("tree")
        with pytest.raises(TypeError, match="fused decision"):
            compile_model(pipeline).decision_scores([(0,)])


class TestPredictProba:
    @pytest.mark.parametrize("kind", ("logistic", "naive_bayes"))
    def test_matches_underlying_model(self, kind):
        pipeline, data = fitted_pipeline(kind)
        compiled = compile_model(pipeline)
        design = pipeline.featurizer_.transform(data.transactions)
        if kind == "logistic":
            expected = pipeline.model_.predict_proba(design)
        else:
            log_posterior = pipeline.model_.predict_log_proba(design)
            shifted = np.exp(
                log_posterior - log_posterior.max(axis=1, keepdims=True)
            )
            expected = shifted / shifted.sum(axis=1, keepdims=True)
        got = compiled.predict_proba(data.transactions)
        assert np.allclose(got, expected, rtol=0, atol=1e-12)
        assert np.allclose(got.sum(axis=1), 1.0)

    def test_svm_has_no_probabilities(self):
        pipeline, _ = fitted_pipeline("svm")
        with pytest.raises(TypeError, match="probabilities"):
            compile_model(pipeline).predict_proba([(0,)])


class TestConstruction:
    def test_unfitted_pipeline_rejected(self):
        from repro.features.pipeline import FrequentPatternClassifier

        with pytest.raises(ValueError, match="fitted"):
            compile_model(FrequentPatternClassifier())

    def test_out_of_range_pattern_rejected(self):
        with pytest.raises(ValueError, match="never match"):
            PatternFeaturizer(n_items=3, patterns=[Pattern(items=(5,), support=1)])

    def test_bad_item_mask_shape_rejected(self):
        with pytest.raises(ValueError, match="item_mask"):
            PatternFeaturizer(n_items=3, item_mask=np.ones(5, dtype=bool))

    def test_bad_chunk_rows_rejected(self):
        pipeline, _ = fitted_pipeline("svm")
        with pytest.raises(ValueError, match="chunk_rows"):
            compile_model(pipeline, chunk_rows=0)

    def test_describe(self):
        pipeline, _ = fitted_pipeline("svm")
        info = compile_model(pipeline).describe()
        assert info["model"] == "LinearSVM"
        assert info["fused"] is True
        assert info["n_features"] == info["n_items"] + info["n_patterns"]


class TestBatchServingContract:
    """``pipeline.predict`` rejects unknown items; the serving entry drops
    and counts them, and only the serving entry records ``serving.*``."""

    def test_batch_predict_raises_on_unknown_items(self):
        pipeline, data = fitted_pipeline("svm")
        wider = TransactionDataset(
            [(0, data.n_items + 2)], [0], n_items=data.n_items + 5
        )
        with pytest.raises(IndexError, match="outside"):
            pipeline.predict(wider)

    def test_unsanitized_dataset_reads_its_cached_bits(self):
        pipeline, data = fitted_pipeline("svm")
        compiled = compile_model(pipeline)
        data.item_bits()
        packer = mock.Mock(wraps=pack_transactions)
        with mock.patch.object(bitset, "pack_transactions", packer), mock.patch(
            "repro.serving.compiled.pack_transactions", packer
        ):
            labels = compiled.predict(data, sanitize=False)
        assert packer.call_count == 0
        assert np.array_equal(labels, compiled.predict(data.transactions))
        assert np.array_equal(labels, design_path(pipeline, data))
        # An item outside the model's item space still raises.
        wider = TransactionDataset(
            [(0, data.n_items + 2)], [0], n_items=data.n_items + 5
        )
        with pytest.raises(IndexError, match="outside"):
            compiled.predict(wider, sanitize=False)

    def test_serving_predict_drops_and_counts_unknown_items(self):
        pipeline, _ = fitted_pipeline("svm")
        compiled = compile_model(pipeline)
        noisy = [(0, 1, compiled.n_items + 40), (compiled.n_items,)]
        with obs.session() as session:
            labels = compiled.predict(noisy)
        assert np.array_equal(labels, compiled.predict([(0, 1), ()]))
        assert session.counters["serving.unknown_items_dropped"] == 2
        assert session.counters["serving.rows_predicted"] == 2
        assert [s["name"] for s in session.spans] == ["serving.predict"]

    def test_batch_predict_records_no_serving_telemetry(self):
        pipeline, data = fitted_pipeline("svm")
        with obs.session() as session:
            pipeline.predict(data)
        names = [s["name"] for s in session.spans]
        assert names == ["pipeline.predict"]
        assert not any(name.startswith("serving.") for name in session.counters)
