"""Tests for the chi-square relevance measure."""

import numpy as np
import pytest

from repro.measures import ContingencyTables
from repro.selection import ChiSquareRelevance, get_relevance


def chi2_of(present, absent) -> float:
    """The measure on one table, through its batch form."""
    tables = ContingencyTables(
        present=np.array([present]), absent=np.array([absent])
    )
    [score] = ChiSquareRelevance().batch(tables).tolist()
    return score


class TestChiSquareRelevance:
    def test_registered(self):
        assert isinstance(get_relevance("chi2"), ChiSquareRelevance)

    def test_independent_is_zero(self):
        assert chi2_of((25, 25), (25, 25)) == pytest.approx(0.0)

    def test_perfect_association_is_one(self):
        # Normalized chi2 of a perfectly aligned 2x2 table equals 1 (phi^2).
        assert chi2_of((0, 50), (50, 0)) == pytest.approx(1.0)

    def test_monotone_in_association(self):
        weak = chi2_of((20, 30), (30, 20))
        strong = chi2_of((5, 45), (45, 5))
        assert strong > weak

    def test_empty_is_zero(self):
        assert chi2_of((0, 0), (0, 0)) == 0.0

    def test_usable_in_mmrfs(self, planted_transactions):
        from repro.mining import mine_class_patterns
        from repro.selection import mmrfs

        mined = mine_class_patterns(planted_transactions, min_support=0.25)
        result = mmrfs(
            mined.patterns, planted_transactions, relevance="chi2", delta=1
        )
        assert len(result) >= 1

    def test_agrees_with_cmar_chi2(self):
        """Normalized measure == CMAR's chi_square / n on the same table."""
        from repro.baselines import chi_square

        present, absent = (10, 30), (35, 25)
        n = sum(present) + sum(absent)
        expected = chi_square(
            sum(present), present[1] + absent[1], present[1], n
        ) / n
        # The 2 x m measure sums over classes; for 2 classes both formulations
        # describe the same table.
        assert chi2_of(present, absent) == pytest.approx(expected)
