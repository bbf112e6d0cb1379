"""Tests for the feature transformer and the end-to-end pipeline."""

import numpy as np
import pytest

from repro.classifiers import BernoulliNaiveBayes, DecisionTree, LinearSVM
from repro.datasets import TransactionDataset
from repro.features import FrequentPatternClassifier, PatternFeaturizer
from repro.mining import Pattern


class TestPatternFeaturizer:
    def test_items_only(self, tiny_transactions):
        featurizer = PatternFeaturizer(n_items=tiny_transactions.n_items)
        design = featurizer.transform(tiny_transactions)
        assert design.shape == (8, tiny_transactions.n_items)
        assert np.array_equal(design, tiny_transactions.to_binary_matrix())

    def test_pattern_columns_appended(self, tiny_transactions):
        pattern = Pattern(items=tiny_transactions.transactions[0][:2], support=1)
        featurizer = PatternFeaturizer(
            n_items=tiny_transactions.n_items, patterns=[pattern]
        )
        design = featurizer.transform(tiny_transactions)
        assert design.shape[1] == tiny_transactions.n_items + 1
        expected = tiny_transactions.covers(pattern.items).astype(float)
        assert np.array_equal(design[:, -1], expected)

    def test_exclude_items(self, tiny_transactions):
        pattern = Pattern(items=(0, 3), support=1)
        featurizer = PatternFeaturizer(
            n_items=tiny_transactions.n_items,
            patterns=[pattern],
            include_items=False,
        )
        design = featurizer.transform(tiny_transactions)
        assert design.shape[1] == 1

    def test_feature_names_with_catalog(self, tiny_transactions):
        pattern = Pattern(items=(0, 3), support=1)
        featurizer = PatternFeaturizer(
            n_items=tiny_transactions.n_items, patterns=[pattern]
        )
        names = featurizer.feature_names(tiny_transactions.catalog)
        assert len(names) == featurizer.n_features
        assert names[-1].startswith("pattern:{")
        assert "outlook=" in names[0]

    def test_raw_transaction_input(self, tiny_transactions):
        featurizer = PatternFeaturizer(n_items=tiny_transactions.n_items)
        design = featurizer.transform(tiny_transactions.transactions[:3])
        assert design.shape[0] == 3

    def test_empty_feature_space(self):
        featurizer = PatternFeaturizer(n_items=0, include_items=False)
        assert featurizer.transform([()]).shape == (1, 0)


class TestPipelineFit:
    def test_pat_fs_beats_items_on_planted(self, planted_transactions):
        """The headline claim on data with planted conjunctive structure."""
        half = planted_transactions.n_rows // 2
        train = planted_transactions.subset(range(half))
        test = planted_transactions.subset(range(half, planted_transactions.n_rows))

        items_only = FrequentPatternClassifier(
            use_patterns=False, classifier=LinearSVM()
        ).fit(train)
        pat_fs = FrequentPatternClassifier(
            min_support=0.2, delta=3, classifier=LinearSVM()
        ).fit(train)
        assert pat_fs.score(test) > items_only.score(test)

    def test_selection_none_keeps_all_mined(self, planted_transactions):
        model = FrequentPatternClassifier(min_support=0.3, selection="none")
        model.fit(planted_transactions)
        assert model.selected_patterns == model.mined_patterns_

    def test_mmrfs_selects_subset(self, planted_transactions):
        model = FrequentPatternClassifier(min_support=0.2, selection="mmrfs", delta=2)
        model.fit(planted_transactions)
        assert 0 < len(model.selected_patterns) <= len(model.mined_patterns_)

    def test_topk_selection(self, planted_transactions):
        model = FrequentPatternClassifier(
            min_support=0.25, selection="topk", top_k=7
        )
        model.fit(planted_transactions)
        assert len(model.selected_patterns) == 7

    def test_auto_min_support(self, planted_transactions):
        model = FrequentPatternClassifier(min_support="auto", ig0=0.05)
        model.fit(planted_transactions)
        assert model.resolved_min_support_ is not None
        assert 0 < model.resolved_min_support_ < 0.5

    def test_use_patterns_false_is_pure_items(self, planted_transactions):
        model = FrequentPatternClassifier(use_patterns=False)
        model.fit(planted_transactions)
        assert model.selected_patterns == []
        assert model.featurizer_.n_features == planted_transactions.n_items

    def test_item_fs_reduces_columns(self, planted_transactions):
        model = FrequentPatternClassifier(
            use_patterns=False, select_items=True, item_fs_fraction=0.5
        )
        model.fit(planted_transactions)
        assert model.item_mask_ is not None
        kept = int(model.item_mask_.sum())
        assert kept <= max(1, int(round(0.5 * planted_transactions.n_items))) + 2

    def test_accepts_dataset_directly(self, planted_dataset):
        model = FrequentPatternClassifier(min_support=0.3)
        model.fit(planted_dataset)
        predictions = model.predict(planted_dataset)
        assert len(predictions) == planted_dataset.n_rows

    def test_predict_before_fit_raises(self, planted_transactions):
        with pytest.raises(RuntimeError):
            FrequentPatternClassifier().predict(planted_transactions)

    def test_invalid_min_support(self, planted_transactions):
        with pytest.raises(ValueError):
            FrequentPatternClassifier(min_support=2.0).fit(planted_transactions)

    def test_invalid_selection_name(self, planted_transactions):
        with pytest.raises(ValueError):
            FrequentPatternClassifier(
                min_support=0.3, selection="bogus"
            ).fit(planted_transactions)

    def test_classifier_not_mutated(self, planted_transactions):
        """fit() clones the classifier prototype instead of training it."""
        prototype = LinearSVM()
        model = FrequentPatternClassifier(
            min_support=0.3, classifier=prototype
        ).fit(planted_transactions)
        assert prototype.weights_ is None
        assert model.model_ is not prototype

    def test_works_with_any_classifier(self, planted_transactions):
        for classifier in (DecisionTree(), BernoulliNaiveBayes()):
            model = FrequentPatternClassifier(
                min_support=0.3, classifier=classifier
            ).fit(planted_transactions)
            assert model.score(planted_transactions) > 0.5

    def test_describe_features(self, planted_transactions):
        model = FrequentPatternClassifier(min_support=0.3)
        model.fit(planted_transactions)
        names = model.describe_features(planted_transactions.catalog)
        expected = planted_transactions.n_items + len(model.selected_patterns)
        assert len(names) == expected


class TestPipelineNoLeakage:
    def test_featurization_fixed_at_fit_time(self, planted_transactions):
        """Transforming test data must not re-mine or change columns."""
        half = planted_transactions.n_rows // 2
        train = planted_transactions.subset(range(half))
        test = planted_transactions.subset(
            range(half, planted_transactions.n_rows)
        )
        model = FrequentPatternClassifier(min_support=0.25).fit(train)
        patterns_before = list(model.selected_patterns)
        model.predict(test)
        assert model.selected_patterns == patterns_before


class TestCandidateCap:
    def test_cap_keeps_most_relevant(self, planted_transactions):
        capped = FrequentPatternClassifier(
            min_support=0.15, max_candidates=10, selection="none"
        )
        capped.fit(planted_transactions)
        uncapped = FrequentPatternClassifier(
            min_support=0.15, max_candidates=None, selection="none"
        )
        uncapped.fit(planted_transactions)
        assert len(capped.mined_patterns_) == 10
        assert len(uncapped.mined_patterns_) >= 10
        # The capped set is the IG head of the uncapped set.
        from repro.measures import information_gain
        from tests.oracles.scoring import batch_pattern_stats

        stats = batch_pattern_stats(
            uncapped.mined_patterns_, planted_transactions
        )
        gains = sorted(
            (information_gain(s) for s in stats), reverse=True
        )
        capped_stats = batch_pattern_stats(
            capped.mined_patterns_, planted_transactions
        )
        capped_min = min(information_gain(s) for s in capped_stats)
        assert capped_min >= gains[10] - 1e-9

    def test_cap_inactive_when_fewer(self, planted_transactions):
        model = FrequentPatternClassifier(
            min_support=0.35, max_candidates=100_000, selection="none"
        )
        model.fit(planted_transactions)
        # Nothing dropped: the mined set was already under the cap.
        assert len(model.mined_patterns_) <= 100_000


class TestCandidateTable:
    """Between mining and selection the candidates are one counted table."""

    # The default cap does not fire on these rows; 50 makes it fire.
    @pytest.mark.parametrize("max_candidates", [20_000, 50])
    def test_default_fit_builds_patterns_only_for_the_selection(
        self, planted_transactions, monkeypatch, max_candidates
    ):
        from repro.obs.core import session

        built = []
        post_init = Pattern.__post_init__

        def counting(pattern):
            built.append(pattern)
            post_init(pattern)

        monkeypatch.setattr(Pattern, "__post_init__", counting)
        with session() as sess:
            model = FrequentPatternClassifier(max_candidates=max_candidates).fit(
                planted_transactions
            )
        selected = len(model.selected_patterns)
        assert 0 < len(built) <= selected
        # Mining counted the candidates once; the cap and MMRFS read it.
        assert sess.counters.get("measures.contingency.batches", 0) == 0
        assert [s["name"] for s in sess.spans].count("mining.recount") == 1
        assert selected < len(model.mined_patterns_) <= max_candidates

    def test_counts_match_the_dataset(self, planted_transactions):
        from repro.mining import mine_class_patterns

        mined = mine_class_patterns(planted_transactions, min_support=0.2)
        assert np.array_equal(mined.class_totals, planted_transactions.class_counts())
        for items, counts, support in zip(
            mined.itemsets, mined.counts, mined.supports
        ):
            assert list(counts) == list(
                planted_transactions.class_support_counts(items)
            )
            assert support == planted_transactions.support_count(items)


class TestPipelineBudget:
    def test_pattern_budget_propagates(self, planted_transactions):
        from repro.mining import PatternBudgetExceeded

        tiny_budget = FrequentPatternClassifier(
            min_support=0.02, max_length=None, max_patterns=5
        )
        with pytest.raises(PatternBudgetExceeded):
            tiny_budget.fit(planted_transactions)


class TestInnerModelSelection:
    def test_candidates_picked_by_inner_cv(self, planted_transactions):
        from repro.classifiers import BernoulliNaiveBayes, LinearSVM

        model = FrequentPatternClassifier(
            min_support=0.25,
            classifier_candidates=[
                lambda: LinearSVM(),
                lambda: BernoulliNaiveBayes(),
            ],
            inner_folds=2,
        )
        model.fit(planted_transactions)
        assert len(model.candidate_scores_) == 2
        assert isinstance(model.model_, (LinearSVM, BernoulliNaiveBayes))
        best = max(model.candidate_scores_, key=lambda s: s.mean_accuracy)
        winner_type = (LinearSVM, BernoulliNaiveBayes)[best.index]
        assert isinstance(model.model_, winner_type)

    def test_no_candidates_uses_classifier(self, planted_transactions):
        model = FrequentPatternClassifier(min_support=0.3)
        model.fit(planted_transactions)
        assert model.candidate_scores_ == []


class TestFeaturizerProperties:
    def test_pattern_columns_match_covers(self, planted_transactions):
        """Every pattern column equals the dataset's covers() mask."""
        from repro.mining import mine_class_patterns

        mined = mine_class_patterns(planted_transactions, min_support=0.3)
        patterns = mined.patterns[:20]
        featurizer = PatternFeaturizer(
            n_items=planted_transactions.n_items, patterns=patterns
        )
        design = featurizer.transform(planted_transactions)
        n_items = planted_transactions.n_items
        for column, pattern in enumerate(patterns):
            expected = planted_transactions.covers(pattern.items)
            assert np.array_equal(
                design[:, n_items + column].astype(bool), expected
            )

    def test_transform_is_deterministic(self, planted_transactions):
        featurizer = PatternFeaturizer(
            n_items=planted_transactions.n_items,
            patterns=[Pattern(items=(0, 1), support=0)],
        )
        a = featurizer.transform(planted_transactions)
        b = featurizer.transform(planted_transactions)
        assert np.array_equal(a, b)

    def test_subset_then_transform_commutes(self, planted_transactions):
        """Featurizing a subset equals subsetting the featurized matrix."""
        featurizer = PatternFeaturizer(n_items=planted_transactions.n_items)
        indices = [0, 5, 9, 40]
        direct = featurizer.transform(planted_transactions.subset(indices))
        full = featurizer.transform(planted_transactions)[indices]
        assert np.array_equal(direct, full)
