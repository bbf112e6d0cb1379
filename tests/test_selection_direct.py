"""Tests for DDPMine-style direct discriminative pattern mining."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import TransactionDataset
from repro.measures import vectorized
from repro.measures.vectorized import _VERTEX_CLASS_CAP, ig_subtree_bound
from repro.mining import mine_class_patterns
from repro.selection import ddpmine
from tests.oracles.scoring import information_gain_from_counts


@st.composite
def coverage_tables(draw):
    """Covered and uncovered per-class counts for 2-5 classes."""
    n_classes = draw(st.integers(2, 5))
    present = draw(st.lists(st.integers(0, 3), min_size=n_classes, max_size=n_classes))
    absent = draw(st.lists(st.integers(0, 12), min_size=n_classes, max_size=n_classes))
    return np.array(present), np.array(absent)


def best_sub_coverage_gain(present: np.ndarray, totals: np.ndarray) -> float:
    """Max IG over every sub-multiset of the covered rows, by brute force."""
    return max(
        information_gain_from_counts(sub, totals - np.array(sub))
        for sub in itertools.product(*(range(int(c) + 1) for c in present))
    )


def bound(present, totals) -> float:
    return float(ig_subtree_bound(np.array([present]), np.array(totals))[0])


class TestSupersetBound:
    def test_pure_coverage_reaches_bound(self):
        present = np.array([10, 0])
        absent = np.array([0, 10])
        gain = information_gain_from_counts(present, absent)
        assert bound(present, present + absent) >= gain - 1e-12

    def test_zero_coverage(self):
        assert bound([0, 0], [5, 5]) == 0.0

    def test_multiclass_counterexample_to_a_pure_class_bound(self):
        """Covering classes 1-3 and no row of class 0 reaches IG 0.750,
        while the best single-class coverage reaches only 0.371."""
        present = np.array([2, 1, 1, 1])
        totals = np.array([11, 1, 1, 1])
        pure = max(
            information_gain_from_counts(row, totals - row)
            for row in np.diag(present)
        )
        gain = information_gain_from_counts([0, 1, 1, 1], [11, 0, 0, 0])
        assert (pure, gain) == pytest.approx((0.3712, 0.7496), abs=1e-4)
        assert bound(present, totals) == pytest.approx(gain, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(table=coverage_tables())
    def test_admissible_and_attained(self, table):
        """Every sub-coverage's IG is below the bound, and one reaches it."""
        present, absent = table
        totals = present + absent
        best = best_sub_coverage_gain(present, totals)
        assert bound(present, totals) == pytest.approx(best, abs=1e-9)

    def test_fallback_above_the_class_cap_is_admissible(self):
        n_classes = _VERTEX_CLASS_CAP + 1
        rng = np.random.default_rng(1)
        present = rng.integers(0, 2, size=n_classes)
        totals = present + rng.integers(0, 6, size=n_classes)
        assert bound(present, totals) >= best_sub_coverage_gain(present, totals) - 1e-9

    def test_one_bound_per_row_in_any_chunking(self, monkeypatch):
        present = np.array([[3, 0, 1], [0, 0, 0], [1, 2, 2]])
        totals = np.array([5, 4, 3])
        whole = ig_subtree_bound(present, totals).tolist()
        assert whole == [bound(row, totals) for row in present]
        # One vertex row per pass: every row is its own chunk.
        monkeypatch.setattr(vectorized, "_VERTEX_ROWS", 1)
        assert ig_subtree_bound(present, totals).tolist() == whole


class TestDDPMine:
    def test_finds_planted_pattern_first(self):
        """On clean conjunctive data the first pattern is the planted one."""
        transactions = [(0, 1, 4), (0, 1, 5), (0, 1, 6), (2, 3, 4), (2, 3, 5), (2, 3, 6)] * 10
        labels = [0, 0, 0, 1, 1, 1] * 10
        data = TransactionDataset(transactions, labels, n_items=7)
        result = ddpmine(data, min_support=0.2, delta=1, max_length=3)
        assert len(result) >= 1
        first = set(result.patterns[0].items)
        assert first in ({0, 1}, {2, 3}, {0}, {1}, {2}, {3})
        assert result.gains[0] == pytest.approx(1.0, abs=1e-9)

    def test_gains_recorded_descendingish(self, planted_transactions):
        result = ddpmine(planted_transactions, min_support=0.1, delta=2)
        assert len(result.gains) == len(result.patterns)
        assert all(g > 0 for g in result.gains)

    def test_coverage_progresses(self, planted_transactions):
        shallow = ddpmine(planted_transactions, min_support=0.1, delta=1)
        deep = ddpmine(planted_transactions, min_support=0.1, delta=3)
        assert len(deep) >= len(shallow)

    def test_supports_are_global(self, planted_transactions):
        result = ddpmine(planted_transactions, min_support=0.15, delta=1)
        for pattern in result.patterns:
            assert pattern.support == planted_transactions.support_count(
                pattern.items
            )

    def test_max_patterns_cap(self, planted_transactions):
        result = ddpmine(
            planted_transactions, min_support=0.05, delta=5, max_patterns=3
        )
        assert len(result) <= 3

    def test_validation(self, planted_transactions):
        with pytest.raises(ValueError):
            ddpmine(planted_transactions, min_support=0.0)
        with pytest.raises(ValueError):
            ddpmine(planted_transactions, delta=0)

    def test_direct_matches_exhaustive_top_gain(self, planted_transactions):
        """The first direct pattern's IG matches the best IG over the
        exhaustively mined candidate set at the same support/length."""
        from tests.oracles.scoring import batch_pattern_stats, information_gain

        data = planted_transactions
        direct = ddpmine(data, min_support=0.2, delta=1, max_length=3,
                         max_patterns=1)
        mined = mine_class_patterns(
            data, min_support=0.2, miner="all", min_length=1, max_length=3
        )
        stats = batch_pattern_stats(mined.patterns, data)
        best_exhaustive = max(information_gain(s) for s in stats)
        # Direct search explores the same space top-down, so its winner
        # cannot be worse... but exhaustive mining thresholds support per
        # class partition while ddpmine thresholds globally, so allow the
        # direct winner to be at least as good.
        assert direct.gains[0] >= best_exhaustive - 1e-9
