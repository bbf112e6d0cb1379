"""Tests for per-class feature generation and guarded mining."""

import time

import pytest
from hypothesis import given, settings

from repro.core.shards import shard_dataset
from repro.mining import (
    MiningTimeLimitExceeded,
    PatternBudgetExceeded,
    closed_fpgrowth,
    frequent_itemsets,
    guarded_mine,
    mine_class_patterns,
    mine_sharded,
    recount_supports,
)
from repro.selection import ddpmine
from tests.oracles.itemset_miners import apriori, charm
from tests.oracles.strategies import supports, transactions

ALL_MINERS = [apriori, frequent_itemsets, closed_fpgrowth, charm]


class TestMineClassPatterns:
    def test_supports_counted_globally(self, tiny_transactions):
        result = mine_class_patterns(tiny_transactions, min_support=0.3)
        for pattern in result:
            assert pattern.support == tiny_transactions.support_count(pattern.items)

    def test_min_length_excludes_singles(self, tiny_transactions):
        result = mine_class_patterns(tiny_transactions, min_support=0.3)
        assert all(p.length >= 2 for p in result)

    def test_min_length_one_includes_singles(self, tiny_transactions):
        result = mine_class_patterns(
            tiny_transactions, min_support=0.3, min_length=1
        )
        assert any(p.length == 1 for p in result)

    def test_relative_support_validation(self, tiny_transactions):
        with pytest.raises(ValueError, match="relative"):
            mine_class_patterns(tiny_transactions, min_support=5)

    def test_union_over_classes(self, planted_transactions):
        """A pattern frequent in either class partition appears in the union."""
        result = mine_class_patterns(planted_transactions, min_support=0.35)
        itemsets = {p.items for p in result}
        partition = planted_transactions.class_partition()
        for label, transactions in partition.items():
            threshold = int(-(-0.35 * len(transactions) // 1))
            per_class = closed_fpgrowth(transactions, threshold)
            for pattern in per_class:
                if pattern.length >= 2:
                    assert pattern.items in itemsets

    def test_miner_all_vs_closed_counts(self, planted_transactions):
        closed = mine_class_patterns(
            planted_transactions, min_support=0.3, miner="closed"
        )
        everything = mine_class_patterns(
            planted_transactions, min_support=0.3, miner="all"
        )
        assert len(everything) >= len(closed)

    def test_deterministic_order(self, tiny_transactions):
        a = mine_class_patterns(tiny_transactions, min_support=0.3)
        b = mine_class_patterns(tiny_transactions, min_support=0.3)
        assert [p.items for p in a] == [p.items for p in b]


#: Every itemset entry point, called on ``tiny_transactions`` with a cap.
MAX_LENGTH_ENTRY_POINTS = {
    "frequent_itemsets": lambda data, cap, _: frequent_itemsets(
        data.transactions, 1, max_length=cap
    ),
    "closed_fpgrowth": lambda data, cap, _: closed_fpgrowth(
        data.transactions, 1, max_length=cap
    ),
    "mine_class_patterns": lambda data, cap, _: mine_class_patterns(
        data, 0.3, max_length=cap
    ),
    "mine_sharded": lambda data, cap, tmp_path: mine_sharded(
        shard_dataset(data, tmp_path, 3), 0.3, max_length=cap
    ),
    "ddpmine": lambda data, cap, _: ddpmine(data, 0.3, max_length=cap),
}


class TestMaxLengthValidation:
    @pytest.mark.parametrize("cap", [0, -1])
    @pytest.mark.parametrize("entry", sorted(MAX_LENGTH_ENTRY_POINTS))
    def test_cap_below_one_item_rejected(
        self, entry, cap, tiny_transactions, tmp_path
    ):
        with pytest.raises(ValueError, match="max_length"):
            MAX_LENGTH_ENTRY_POINTS[entry](tiny_transactions, cap, tmp_path)


class TestRecountSupports:
    def test_empty(self, tiny_transactions):
        assert recount_supports([], tiny_transactions) == []

    def test_matches_naive_counts(self, tiny_transactions):
        itemsets = [(0,), (0, 3), tuple(tiny_transactions.transactions[0])]
        patterns = recount_supports(itemsets, tiny_transactions)
        for pattern in patterns:
            assert pattern.support == tiny_transactions.support_count(pattern.items)


class TestGuardedMine:
    def test_feasible_run(self, tiny_transactions):
        report = guarded_mine(
            frequent_itemsets, tiny_transactions.transactions, min_support=3,
            max_patterns=100_000,
        )
        assert report.feasible
        assert report.result is not None
        assert report.n_patterns == len(report.result)

    def test_blowup_detected(self, planted_transactions):
        report = guarded_mine(
            frequent_itemsets,
            planted_transactions.transactions,
            min_support=1,
            max_patterns=50,
        )
        assert not report.feasible
        assert report.result is None
        assert report.n_patterns > 50
        assert "budget" in report.pattern_count_display

    def test_elapsed_recorded(self, tiny_transactions):
        report = guarded_mine(
            frequent_itemsets, tiny_transactions.transactions, min_support=2,
            max_patterns=100_000,
        )
        assert report.elapsed_seconds >= 0.0


class TestBudgetSemantics:
    """Locks in the record-then-check contract documented on
    :class:`PatternBudgetExceeded`: every miner mines cleanly when the
    true pattern count equals the budget, and trips at exactly
    ``budget + 1`` when it does not fit."""

    @pytest.mark.parametrize("miner", ALL_MINERS)
    def test_exact_budget_is_feasible(self, miner, tiny_transactions):
        transactions = tiny_transactions.transactions
        unbounded = guarded_mine(
            miner, transactions, min_support=2, max_patterns=1_000_000
        )
        assert unbounded.feasible
        exact = guarded_mine(
            miner, transactions, min_support=2,
            max_patterns=unbounded.n_patterns,
        )
        assert exact.feasible
        assert exact.n_patterns == unbounded.n_patterns
        assert exact.result.as_dict() == unbounded.result.as_dict()

    @pytest.mark.parametrize("miner", ALL_MINERS)
    def test_trips_at_budget_plus_one(self, miner, tiny_transactions):
        transactions = tiny_transactions.transactions
        unbounded = guarded_mine(
            miner, transactions, min_support=2, max_patterns=1_000_000
        )
        budget = unbounded.n_patterns - 1
        assert budget >= 1
        report = guarded_mine(
            miner, transactions, min_support=2, max_patterns=budget
        )
        assert not report.feasible
        assert report.result is None
        assert report.guard == "budget"
        assert report.n_patterns == budget + 1
        assert report.n_patterns <= unbounded.n_patterns

    @pytest.mark.parametrize("miner", ALL_MINERS)
    def test_emitted_is_lower_bound(self, miner, tiny_transactions):
        transactions = tiny_transactions.transactions
        report = guarded_mine(
            miner, transactions, min_support=1, max_patterns=10
        )
        assert not report.feasible
        true_count = len(miner(transactions, 1))
        assert 10 < report.n_patterns <= true_count
        assert report.pattern_count_display.startswith(f">{report.n_patterns}")

    @pytest.mark.parametrize("miner", ALL_MINERS)
    @settings(max_examples=40, deadline=None)
    @given(db=transactions(), min_support=supports())
    def test_budget_contract_on_random_databases(self, miner, db, min_support):
        """The true count fits its own budget; one less trips at the count."""
        count = len(miner(db, min_support))
        assert len(miner(db, min_support, max_patterns=count)) == count
        if count:
            with pytest.raises(PatternBudgetExceeded) as excinfo:
                miner(db, min_support, max_patterns=count - 1)
            assert excinfo.value.emitted == count


def _sleepy_miner(transactions, min_support, max_patterns=None):
    """A miner that never finishes — only the wall-clock guard stops it."""
    while True:
        time.sleep(0.01)


class TestWallClockGuard:
    def test_slow_miner_reported_infeasible(self, tiny_transactions):
        start = time.perf_counter()
        report = guarded_mine(
            _sleepy_miner,
            tiny_transactions.transactions,
            min_support=2,
            max_patterns=100,
            time_limit=0.2,
        )
        elapsed = time.perf_counter() - start
        assert not report.feasible
        assert report.result is None
        assert report.guard == "time limit"
        assert report.n_patterns == 0
        assert "time limit" in report.pattern_count_display
        assert elapsed < 5.0

    def test_fast_run_unaffected_by_limit(self, tiny_transactions):
        report = guarded_mine(
            frequent_itemsets,
            tiny_transactions.transactions,
            min_support=3,
            max_patterns=100_000,
            time_limit=30.0,
        )
        assert report.feasible
        assert report.guard == "budget"

    def test_exception_carries_limit(self):
        exc = MiningTimeLimitExceeded(1.5)
        assert exc.time_limit == 1.5
        assert "1.5" in str(exc)


class TestMergedBudget:
    def test_union_budget_enforced(self, planted_transactions):
        """The pattern budget bounds the merged candidate set, not just
        each class partition (regression: letter's min_sup=1 row)."""
        with pytest.raises(PatternBudgetExceeded):
            mine_class_patterns(
                planted_transactions,
                min_support=0.05,
                max_length=4,
                max_patterns=20,
            )

    def test_budget_not_triggered_when_under(self, tiny_transactions):
        result = mine_class_patterns(
            tiny_transactions, min_support=0.3, max_patterns=10_000
        )
        assert len(result) <= 10_000


class TestFilterByInformationGain:
    def test_threshold_zero_keeps_all(self, planted_transactions):
        from repro.mining import filter_by_information_gain

        mined = mine_class_patterns(planted_transactions, min_support=0.2)
        kept = filter_by_information_gain(
            mined.patterns, planted_transactions, ig0=0.0
        )
        assert kept == mined.patterns

    def test_matches_scalar_filter(self, planted_transactions):
        from repro.measures import information_gain
        from repro.mining import filter_by_information_gain
        from tests.oracles.scoring import batch_pattern_stats

        mined = mine_class_patterns(planted_transactions, min_support=0.2)
        ig0 = 0.05
        kept = filter_by_information_gain(
            mined.patterns, planted_transactions, ig0=ig0
        )
        stats = batch_pattern_stats(mined.patterns, planted_transactions)
        expected = [
            p
            for p, s in zip(mined.patterns, stats)
            if information_gain(s) >= ig0
        ]
        assert kept == expected
        assert len(kept) < len(mined.patterns)  # the threshold bites

    def test_dropped_count_recorded(self, planted_transactions):
        from repro.mining import filter_by_information_gain
        from repro.obs.core import session

        mined = mine_class_patterns(planted_transactions, min_support=0.2)
        with session() as sess:
            kept = filter_by_information_gain(
                mined.patterns, planted_transactions, ig0=0.05
            )
        dropped = len(mined.patterns) - len(kept)
        assert sess.counters["mining.generation.ig_filtered"] == dropped

    def test_empty_and_invalid(self, tiny_transactions):
        from repro.mining import filter_by_information_gain

        assert filter_by_information_gain([], tiny_transactions, ig0=0.1) == []
        with pytest.raises(ValueError):
            filter_by_information_gain([], tiny_transactions, ig0=-0.1)
