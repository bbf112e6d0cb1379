"""Cross-module integration tests: the paper's full workflows end to end."""

import numpy as np
import pytest

from repro.baselines import CBAClassifier, HarmonyClassifier
from repro.classifiers import (
    BernoulliNaiveBayes,
    DecisionTree,
    KernelSVM,
    LinearSVM,
)
from repro.datasets import SyntheticSpec, TransactionDataset, generate, load_uci
from repro.discretize import MDLP, discretize_table
from repro.eval import cross_validate_pipeline, stratified_kfold
from repro.features import FrequentPatternClassifier
from repro.measures import ig_upper_bound
from repro.selection import suggest_min_support
from tests.oracles.scoring import information_gain, pattern_stats


@pytest.fixture(scope="module")
def holdout():
    data = TransactionDataset.from_dataset(load_uci("cleve", scale=0.6))
    train_idx, test_idx = stratified_kfold(data.labels, n_folds=3, seed=0)[0]
    return data.subset(train_idx), data.subset(test_idx)


class TestFullWorkflow:
    def test_auto_minsup_end_to_end(self, holdout):
        """Strategy -> mining -> MMRFS -> SVM, driven by an IG threshold."""
        train, test = holdout
        model = FrequentPatternClassifier(
            min_support="auto", ig0=0.1, delta=3, classifier=LinearSVM()
        )
        model.fit(train)
        suggestion = suggest_min_support(train.labels, ig0=0.1)
        assert model.resolved_min_support_ == pytest.approx(
            max(suggestion.theta, 1.0 / train.n_rows)
        )
        assert model.score(test) > 0.5

    def test_every_classifier_through_pipeline(self, holdout):
        train, test = holdout
        chance = max(np.bincount(test.labels)) / test.n_rows
        for classifier in (
            LinearSVM(),
            KernelSVM(kernel="rbf"),
            DecisionTree(),
            BernoulliNaiveBayes(),
        ):
            model = FrequentPatternClassifier(
                min_support=0.15, delta=2, classifier=classifier
            )
            model.fit(train)
            assert model.score(test) >= chance - 0.1, type(classifier).__name__

    def test_selected_patterns_respect_theory(self, holdout):
        """Every MMRFS-selected pattern obeys the IG bound at its support."""
        train, _ = holdout
        model = FrequentPatternClassifier(min_support=0.1, delta=3)
        model.fit(train)
        prior = float(train.class_counts()[1]) / train.n_rows
        for pattern in model.selected_patterns:
            stats = pattern_stats(pattern, train)
            gain = information_gain(stats)
            assert gain <= ig_upper_bound(stats.theta, prior, mode="exact") + 1e-9

    def test_numeric_to_patterns_workflow(self):
        """Numeric matrix -> MDLP -> itemize -> patterns -> classify."""
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(300, 4))
        labels = ((matrix[:, 0] > 0) == (matrix[:, 1] > 0)).astype(int)
        dataset = discretize_table(matrix, labels, MDLP(fallback_bins=3))
        data = TransactionDataset.from_dataset(dataset)
        model = FrequentPatternClassifier(min_support=0.1, classifier=LinearSVM())
        model.fit(data)
        assert model.score(data) > 0.7

    def test_baselines_and_pipeline_same_data(self, holdout):
        """Associative baselines and the pipeline coexist on one dataset."""
        train, test = holdout
        pat_fs = FrequentPatternClassifier(min_support=0.1, delta=3).fit(train)
        cba = CBAClassifier(min_support=0.1, min_confidence=0.6).fit(train)
        harmony = HarmonyClassifier(min_support=0.1, min_confidence=0.55).fit(train)
        accuracies = {
            "pat_fs": pat_fs.score(test),
            "cba": (cba.predict(test) == test.labels).mean(),
            "harmony": (harmony.predict(test) == test.labels).mean(),
        }
        chance = max(np.bincount(test.labels)) / test.n_rows
        for name, accuracy in accuracies.items():
            assert accuracy > chance - 0.05, (name, accuracy)


class TestCrossValidationIntegration:
    def test_cv_never_leaks_selected_patterns(self):
        """Each fold's pattern set is mined from its own training split."""
        data = TransactionDataset.from_dataset(load_uci("iris"))
        observed_counts = []

        def factory():
            model = FrequentPatternClassifier(min_support=0.2, delta=2)
            original_fit = model.fit

            def spy_fit(training_data):
                result = original_fit(training_data)
                observed_counts.append(
                    (len(training_data.transactions), len(model.selected_patterns))
                )
                return result

            model.fit = spy_fit
            return model

        cross_validate_pipeline(factory, data, n_folds=3, seed=0)
        assert len(observed_counts) == 3
        for n_train, _ in observed_counts:
            assert n_train == 100  # 2/3 of 150

    def test_report_fold_pattern_counts(self):
        data = TransactionDataset.from_dataset(load_uci("iris"))
        factory = lambda: FrequentPatternClassifier(min_support=0.2)  # noqa: E731
        report = cross_validate_pipeline(factory, data, n_folds=3)
        assert all(f.n_selected_patterns >= 0 for f in report.folds)


class TestScaleInvariance:
    def test_scaled_dataset_same_structure(self):
        """Scaling rows preserves planted combos (same signal attributes)."""
        from repro.datasets import plant_structure
        from repro.datasets.uci import UCI_SPECS

        spec = UCI_SPECS["austral"]
        rng_a = np.random.default_rng(spec.seed)
        rng_b = np.random.default_rng(spec.scaled(0.5).seed)
        a = plant_structure(spec, rng_a)
        b = plant_structure(spec.scaled(0.5), rng_b)
        assert a.signal_attributes == b.signal_attributes
        assert a.combos == b.combos
