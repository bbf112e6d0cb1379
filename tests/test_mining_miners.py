"""Unit and property tests for the itemset miners.

The all-itemset miner (``frequent_itemsets``) and the closed miner are
checked against the reference miners of ``tests/oracles/itemset_miners.py``.
The central invariants:

* Apriori and ``frequent_itemsets`` return identical frequent sets with
  identical supports;
* the LCM-style closed miner, CHARM and brute force agree on the closed
  set;
* every frequent itemset is a subset of some closed itemset with equal
  support (closure cover);
* support is anti-monotone.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.mining import Pattern, PatternBudgetExceeded, closed_fpgrowth
from repro.mining import frequent_itemsets
from tests.oracles.itemset_miners import apriori, brute_force_closed, charm
from tests.oracles.strategies import supports, transactions

WEATHER = [
    (0, 3, 5),
    (0, 3, 6),
    (1, 3, 5),
    (2, 4, 5),
    (2, 4, 6),
    (1, 4, 6),
    (0, 4, 5),
    (2, 3, 6),
]


class TestPattern:
    def test_canonicalization(self):
        pattern = Pattern(items=(3, 1, 1, 2), support=5)
        assert pattern.items == (1, 2, 3)
        assert pattern.length == 3

    def test_negative_support_rejected(self):
        with pytest.raises(ValueError):
            Pattern(items=(1,), support=-1)

    def test_contains(self):
        big = Pattern(items=(1, 2, 3), support=2)
        small = Pattern(items=(1, 3), support=4)
        assert big.contains(small)
        assert not small.contains(big)


class TestAprioriBasics:
    def test_single_items(self):
        result = apriori([(0,), (0,), (1,)], min_support=2)
        assert result.as_dict() == {(0,): 2}

    def test_pair_counted(self):
        result = apriori([(0, 1), (0, 1), (0,)], min_support=2)
        assert result.as_dict()[(0, 1)] == 2
        assert result.as_dict()[(0,)] == 3

    def test_min_support_validation(self):
        with pytest.raises(ValueError):
            apriori([(0,)], min_support=0)

    def test_max_length_caps(self):
        result = apriori(WEATHER, min_support=1, max_length=2)
        assert max(p.length for p in result) == 2

    def test_budget_raises(self):
        with pytest.raises(PatternBudgetExceeded):
            apriori(WEATHER, min_support=1, max_patterns=3)


class TestFPGrowthAgainstApriori:
    """``frequent_itemsets``, the all-itemset miner, against Apriori."""

    def test_weather_agreement(self):
        for min_support in (1, 2, 3, 5):
            a = apriori(WEATHER, min_support).as_dict()
            f = frequent_itemsets(WEATHER, min_support).as_dict()
            assert a == f

    def test_max_length_agreement(self):
        a = apriori(WEATHER, 2, max_length=2).as_dict()
        f = frequent_itemsets(WEATHER, 2, max_length=2).as_dict()
        assert a == f

    def test_empty_transactions(self):
        assert len(frequent_itemsets([], min_support=1)) == 0
        assert len(frequent_itemsets([(), ()], min_support=1)) == 0

    def test_budget_raises(self):
        with pytest.raises(PatternBudgetExceeded):
            frequent_itemsets(WEATHER, min_support=1, max_patterns=3)

    @settings(max_examples=60, deadline=None)
    @given(transactions=transactions(), min_support=supports())
    def test_property_agreement(self, transactions, min_support):
        a = apriori(transactions, min_support).as_dict()
        f = frequent_itemsets(transactions, min_support).as_dict()
        assert a == f


class TestClosedMiners:
    def test_weather_all_agree(self):
        for min_support in (1, 2, 3):
            lcm = {(p.items, p.support) for p in closed_fpgrowth(WEATHER, min_support)}
            ch = {(p.items, p.support) for p in charm(WEATHER, min_support)}
            bf = {(p.items, p.support) for p in brute_force_closed(WEATHER, min_support)}
            assert lcm == ch == bf

    def test_closed_is_subset_of_frequent(self):
        frequent = frequent_itemsets(WEATHER, 2).as_dict()
        for pattern in closed_fpgrowth(WEATHER, 2):
            assert frequent[pattern.items] == pattern.support

    def test_closure_cover(self):
        """Every frequent itemset has a closed superset with equal support."""
        frequent = frequent_itemsets(WEATHER, 2)
        closed = list(closed_fpgrowth(WEATHER, 2))
        for pattern in frequent:
            assert any(
                c.support == pattern.support and set(pattern.items) <= set(c.items)
                for c in closed
            ), pattern

    def test_no_closed_pattern_subsumed(self):
        closed = list(closed_fpgrowth(WEATHER, 1))
        for a in closed:
            for b in closed:
                if a is not b and set(a.items) < set(b.items):
                    assert a.support > b.support

    def test_budget_raises(self):
        with pytest.raises(PatternBudgetExceeded):
            closed_fpgrowth(WEATHER, min_support=1, max_patterns=2)
        with pytest.raises(PatternBudgetExceeded):
            charm(WEATHER, min_support=1, max_patterns=2)

    def test_max_length(self):
        capped = closed_fpgrowth(WEATHER, 1, max_length=2)
        assert all(p.length <= 2 for p in capped)

    def test_id_matrix_mines_like_its_rows(self):
        """A 2-D id matrix is a sequence of rows; the miners take it as is."""
        matrix = np.array(WEATHER)
        for miner in (closed_fpgrowth, frequent_itemsets):
            assert miner(matrix, 2).as_dict() == miner(WEATHER, 2).as_dict()

    @settings(max_examples=60, deadline=None)
    @given(transactions=transactions(), min_support=supports())
    def test_property_three_way_agreement(self, transactions, min_support):
        lcm = {(p.items, p.support) for p in closed_fpgrowth(transactions, min_support)}
        ch = {(p.items, p.support) for p in charm(transactions, min_support)}
        bf = {
            (p.items, p.support)
            for p in brute_force_closed(transactions, min_support)
        }
        assert lcm == ch == bf

    @settings(max_examples=40, deadline=None)
    @given(transactions=transactions())
    def test_property_anti_monotonicity(self, transactions):
        result = frequent_itemsets(transactions, 1).as_dict()
        for items, support in result.items():
            for drop in range(len(items)):
                subset = items[:drop] + items[drop + 1 :]
                if subset:
                    assert result[subset] >= support


class TestOnPlantedData:
    def test_planted_combo_is_mined(self, planted_transactions):
        """Closed mining at moderate support finds length-3 patterns."""
        partition = planted_transactions.class_partition()
        class0 = partition[0]
        result = closed_fpgrowth(class0, min_support=max(1, len(class0) // 5))
        assert any(p.length >= 3 for p in result)

    def test_agreement_on_real_scale(self, planted_transactions):
        subset = planted_transactions.subset(range(80))
        min_support = 12
        f = frequent_itemsets(subset.transactions, min_support).as_dict()
        a = apriori(subset.transactions, min_support).as_dict()
        assert f == a
        lcm = {(p.items, p.support) for p in closed_fpgrowth(subset.transactions, min_support)}
        ch = {(p.items, p.support) for p in charm(subset.transactions, min_support)}
        assert lcm == ch
