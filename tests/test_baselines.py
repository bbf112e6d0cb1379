"""Tests for class-association rules and the CBA/CMAR/HARMONY baselines."""

import numpy as np
import pytest

from repro.baselines import (
    CBAClassifier,
    CMARClassifier,
    ClassAssociationRule,
    HarmonyClassifier,
    chi_square,
    max_chi_square,
    mine_cars,
    rule_matches,
)
from repro.datasets import TransactionDataset


@pytest.fixture(scope="module")
def rule_data():
    """Transactions where {0,1} -> class 0 and {2,3} -> class 1, plus noise."""
    rng = np.random.default_rng(5)
    transactions = []
    labels = []
    for _ in range(60):
        noise = tuple(4 + rng.integers(0, 4, size=2))
        if rng.random() < 0.5:
            transactions.append(tuple(sorted({0, 1, *noise})))
            labels.append(0)
        else:
            transactions.append(tuple(sorted({2, 3, *noise})))
            labels.append(1)
    return TransactionDataset(transactions, labels, n_items=8)


class TestCARMining:
    def test_rules_found_with_high_confidence(self, rule_data):
        rules = mine_cars(rule_data, min_support=0.2, min_confidence=0.8)
        antecedents = {(r.antecedent, r.label) for r in rules}
        assert ((0, 1), 0) in antecedents
        assert ((2, 3), 1) in antecedents

    def test_confidence_definition(self, rule_data):
        rules = mine_cars(rule_data, min_support=0.2, min_confidence=0.5)
        for rule in rules:
            assert rule.confidence == pytest.approx(rule.support / rule.coverage)
            assert 0.5 <= rule.confidence <= 1.0

    def test_sorted_by_cba_order(self, rule_data):
        rules = mine_cars(rule_data, min_support=0.1, min_confidence=0.5)
        keys = [(-r.confidence, -r.support, r.length) for r in rules]
        assert keys == sorted(keys)

    def test_invalid_confidence(self, rule_data):
        with pytest.raises(ValueError):
            mine_cars(rule_data, min_confidence=0.0)

    def test_rule_matches_matrix(self, rule_data):
        rules = [
            ClassAssociationRule(antecedent=(0, 1), label=0, support=1, coverage=1),
            ClassAssociationRule(antecedent=(), label=1, support=1, coverage=1),
        ]
        matches = rule_matches(rules, rule_data)
        assert matches.shape == (2, rule_data.n_rows)
        assert (matches[0] == rule_data.covers((0, 1))).all()
        assert matches[1].all()  # the empty antecedent matches every row


class TestChiSquare:
    def test_independent_is_zero(self):
        # coverage 50 of 100, class 50 of 100, overlap exactly 25.
        assert chi_square(50, 50, 25, 100) == pytest.approx(0.0)

    def test_perfect_association_is_max(self):
        value = chi_square(50, 50, 50, 100)
        bound = max_chi_square(50, 50, 100)
        assert value == pytest.approx(bound)
        assert value == pytest.approx(100.0)

    def test_bound_dominates(self):
        for both in range(0, 31):
            assert chi_square(30, 40, both, 100) <= max_chi_square(30, 40, 100) + 1e-9

    def test_empty_data(self):
        assert chi_square(0, 0, 0, 0) == 0.0


class TestCBA:
    def test_learns_rule_data(self, rule_data):
        model = CBAClassifier(min_support=0.2, min_confidence=0.7).fit(rule_data)
        assert model.score(rule_data) > 0.95
        assert model.n_rules >= 2

    def test_default_class_used_for_unmatched(self, rule_data):
        model = CBAClassifier(min_support=0.2, min_confidence=0.7).fit(rule_data)
        # A transaction with only noise items matches no antecedent -> default.
        unknown = TransactionDataset([(4, 5)], [0], n_items=8)
        prediction = model.predict(unknown)
        assert prediction[0] == model.default_class_

    def test_unfitted_raises(self, rule_data):
        with pytest.raises(RuntimeError):
            CBAClassifier().predict(rule_data)


class TestCMAR:
    def test_learns_rule_data(self, rule_data):
        model = CMARClassifier(min_support=0.2, min_confidence=0.6).fit(rule_data)
        assert model.score(rule_data) > 0.95

    def test_insignificant_rules_filtered(self, rule_data):
        strict = CMARClassifier(
            min_support=0.2, min_confidence=0.6, significance=1e9
        ).fit(rule_data)
        assert strict.n_rules == 0
        # degrades to the default class
        assert len(set(strict.predict(rule_data))) == 1

    def test_weighted_chi2_prefers_stronger_class(self, rule_data):
        model = CMARClassifier(min_support=0.2, min_confidence=0.6).fit(rule_data)
        predictions = model.predict(rule_data)
        assert (predictions == rule_data.labels).mean() > 0.9


class TestHarmony:
    def test_learns_rule_data(self, rule_data):
        model = HarmonyClassifier(min_support=0.2, min_confidence=0.6).fit(rule_data)
        assert model.score(rule_data) > 0.95

    def test_instance_coverage_guarantee(self, rule_data):
        """Every training row whose label has any covering rule keeps one."""
        model = HarmonyClassifier(min_support=0.15, min_confidence=0.5).fit(rule_data)
        candidates = mine_cars(rule_data, min_support=0.15, min_confidence=0.5)
        kept = rule_matches(model.rules_, rule_data) if model.rules_ else None
        all_matches = rule_matches(candidates, rule_data)
        for row in range(rule_data.n_rows):
            label = int(rule_data.labels[row])
            has_candidate = any(
                all_matches[i, row] and candidates[i].label == label
                for i in range(len(candidates))
            )
            if has_candidate:
                assert kept is not None
                covered = any(
                    kept[j, row] and model.rules_[j].label == label
                    for j in range(len(model.rules_))
                )
                assert covered

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HarmonyClassifier(rules_per_instance=0)
        with pytest.raises(ValueError):
            HarmonyClassifier(top_k_score=0)


class TestBaselinesOnPlantedData:
    def test_all_baselines_beat_chance(self, planted_transactions):
        chance = max(
            np.bincount(planted_transactions.labels)
        ) / planted_transactions.n_rows
        for model in (
            CBAClassifier(min_support=0.15, min_confidence=0.6),
            CMARClassifier(min_support=0.15, min_confidence=0.55),
            HarmonyClassifier(min_support=0.15, min_confidence=0.55),
        ):
            model.fit(planted_transactions)
            assert model.score(planted_transactions) > chance
