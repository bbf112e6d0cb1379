"""Tests for information gain, Fisher score and contingency statistics.

The library scores every table with the batch kernels of
:mod:`repro.measures.vectorized`; the behaviour checks below run them on
one-row tables.  :class:`PatternStats` is the scalar oracle's table type,
and the closed-form Fisher score of Eq. 5 is the bound oracle's
``fisher_score_binary``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measures import (
    batch_contingency_tables,
    fisher_score_batch,
    information_gain_batch,
)
from repro.mining import Pattern
from tests.oracles.bounds import fisher_score_binary
from tests.oracles.scoring import PatternStats, batch_pattern_stats, pattern_stats

counts = st.integers(0, 50)


def ig(present, absent) -> float:
    """IG of one table, through the batch kernel."""
    return float(information_gain_batch([present], [absent])[0])


def fisher(present, absent) -> float:
    """Fisher score of one table, through the batch kernel."""
    return float(fisher_score_batch([present], [absent])[0])


class TestPatternStats:
    def test_derived_quantities(self):
        stats = PatternStats(present=(3, 6), absent=(7, 4))
        assert stats.n_rows == 20
        assert stats.support == 9
        assert stats.theta == pytest.approx(0.45)
        assert stats.prior(1) == pytest.approx(0.5)
        assert stats.posterior(1) == pytest.approx(6 / 9)

    def test_zero_support_posterior(self):
        stats = PatternStats(present=(0, 0), absent=(5, 5))
        assert stats.posterior(1) == 0.0

    def test_pattern_stats_matches_manual(self, tiny_transactions):
        items = (tiny_transactions.transactions[0][0],)
        stats = pattern_stats(items, tiny_transactions)
        mask = tiny_transactions.covers(items)
        manual_present = np.bincount(
            tiny_transactions.labels[mask], minlength=2
        )
        assert stats.present == tuple(manual_present)
        assert stats.n_rows == tiny_transactions.n_rows

    def test_batch_matches_single(self, tiny_transactions):
        patterns = [
            Pattern(items=(0,), support=0),
            Pattern(items=tiny_transactions.transactions[0][:2], support=0),
        ]
        batched = batch_pattern_stats(patterns, tiny_transactions)
        for pattern, stats in zip(patterns, batched):
            assert stats == pattern_stats(pattern, tiny_transactions)


class TestInformationGain:
    def test_perfect_feature(self):
        # Feature exactly equals the class: IG = H(C) = 1 bit at p = 0.5.
        assert ig((0, 10), (10, 0)) == pytest.approx(1.0)

    def test_useless_feature(self):
        assert ig((5, 5), (5, 5)) == pytest.approx(0.0)

    def test_empty_is_zero(self):
        assert ig((0, 0), (0, 0)) == 0.0

    def test_multiclass(self):
        gain = ig((10, 0, 0), (0, 5, 5))
        assert 0.8 < gain <= 1.6

    @settings(max_examples=100, deadline=None)
    @given(a=counts, b=counts, c=counts, d=counts)
    def test_bounded_by_class_entropy(self, a, b, c, d):
        from repro.measures import entropy

        gain = ig((a, b), (c, d))
        assert 0.0 <= gain <= entropy([a + c, b + d]) + 1e-9


class TestFisherScore:
    def test_useless_feature_zero(self):
        assert fisher((5, 5), (5, 5)) == 0.0

    def test_perfect_feature_infinite(self):
        # A perfectly class-aligned feature has zero within-class variance
        # and positive between-class scatter -> infinite Fisher score, in
        # both the closed form and the counts form.
        assert fisher_score_binary(0.5, 1.0, 0.5) == float("inf")
        assert fisher((10, 0), (0, 10)) == float("inf")

    def test_from_counts_matches_closed_form(self):
        present = (4, 12)
        absent = (16, 8)
        n = 40
        theta = sum(present) / n
        p = (present[1] + absent[1]) / n
        q = present[1] / sum(present)
        assert fisher(present, absent) == pytest.approx(
            fisher_score_binary(p, q, theta)
        )

    @settings(max_examples=120, deadline=None)
    @given(a=st.integers(0, 30), b=st.integers(0, 30),
           c=st.integers(0, 30), d=st.integers(0, 30))
    def test_property_counts_vs_closed_form(self, a, b, c, d):
        """Eq. 4 (counts) == Eq. 5 (p,q,theta closed form) wherever finite."""
        n = a + b + c + d
        support = a + b
        if n == 0 or support == 0 or support == n:
            return
        theta = support / n
        p = (b + d) / n
        q = b / support
        closed = fisher_score_binary(p, q, theta)
        direct = fisher((a, b), (c, d))
        if a * c == 0 and b * d == 0:
            # The within-class variance (Eq. 4 denominator a*c/n0 + b*d/n1)
            # is exactly zero: both forms are at the pole, but the closed
            # form computes it as y - z, where roundoff can leave a huge
            # finite value instead of inf (e.g. a=1, b=0, c=0, d=2).
            assert direct in (0.0, float("inf"))
            return
        if closed == float("inf"):
            assert direct == float("inf")
        else:
            assert direct == pytest.approx(closed, abs=1e-9)

    def test_non_negative(self):
        assert fisher((1, 9), (9, 1)) >= 0.0

    def test_infeasible_closed_form_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            fisher_score_binary(0.1, 0.9, 0.5)


class TestOnDataset:
    def test_ig_and_fisher_agree_on_ranking_direction(self, planted_transactions):
        """A clearly discriminative pattern outranks a useless one in both."""
        from repro.mining import mine_class_patterns

        mined = mine_class_patterns(planted_transactions, min_support=0.3)
        tables = batch_contingency_tables(mined.patterns, planted_transactions)
        gains = information_gain_batch(tables.present, tables.absent)
        fishers = fisher_score_batch(tables.present, tables.absent)
        best_by_ig = int(np.argmax(gains))
        worst_by_ig = int(np.argmin(gains))
        assert fishers[best_by_ig] >= fishers[worst_by_ig]
