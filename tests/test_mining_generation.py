"""Tests for per-class feature generation and guarded mining."""

import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.shards import shard_dataset
from repro.mining import (
    MiningResult,
    MiningTimeLimitExceeded,
    PatternBudgetExceeded,
    closed_fpgrowth,
    frequent_itemsets,
    mine_class_patterns,
    mine_sharded,
)
from repro.mining.guards import _wall_clock_limit
from repro.obs import core as _obs
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
    """``MiningResult.counted``: one per-class count pass over the label
    masks, whose row sums are the supports."""

    def test_empty(self, tiny_transactions):
        table = MiningResult.counted([], tiny_transactions)
        assert table.patterns == []
        assert table.counts.shape == (0, tiny_transactions.n_classes)

    def test_matches_naive_counts(self, tiny_transactions):
        itemsets = [(0,), (0, 3), tuple(tiny_transactions.transactions[0])]
        table = MiningResult.counted(itemsets, tiny_transactions)
        for pattern, counts in zip(table.patterns, table.counts):
            assert pattern.support == tiny_transactions.support_count(pattern.items)
            assert list(counts) == list(
                tiny_transactions.class_support_counts(pattern.items)
            )


class TestGuardedMine:
    """The production guard: ``mine_class_patterns(on_guard="items_only")``
    degrades a tripping partition instead of aborting the run."""

    def test_feasible_run(self, tiny_transactions):
        with _obs.session() as sess:
            guarded = mine_class_patterns(
                tiny_transactions, min_support=0.3, max_patterns=100_000,
                on_guard="items_only", time_limit=30.0,
            )
        plain = mine_class_patterns(tiny_transactions, min_support=0.3)
        assert guarded.as_dict() == plain.as_dict()
        assert "mining.generation.degraded_partitions" not in sess.counters
        assert not [e for e in sess.events if e["kind"] == "warning"]

    def test_blowup_detected(self, planted_transactions):
        with _obs.session() as sess:
            result = mine_class_patterns(
                planted_transactions, min_support=0.05, max_patterns=50,
                on_guard="items_only",
            )
        partitions = len(planted_transactions.class_partition())
        assert sess.counters["mining.generation.degraded_partitions"] == partitions
        assert len(result) == 0
        guards = {
            e["attrs"]["guard"] for e in sess.events if e["kind"] == "warning"
        }
        assert guards == {"budget"}

    def test_elapsed_recorded(self, tiny_transactions):
        with _obs.session() as sess:
            mine_class_patterns(
                tiny_transactions, min_support=0.3, on_guard="items_only",
                time_limit=30.0,
            )
        wall = sess.histograms["mining.partition.wall_s"]
        assert wall.count == len(tiny_transactions.class_partition())
        assert wall.min >= 0.0


class TestBudgetSemantics:
    """Locks in the record-then-check contract documented on
    :class:`PatternBudgetExceeded`: every miner mines cleanly when the
    true pattern count equals the budget, and trips at exactly
    ``budget + 1`` when it does not fit."""

    @pytest.mark.parametrize("miner", ALL_MINERS)
    def test_exact_budget_is_feasible(self, miner, tiny_transactions):
        transactions = tiny_transactions.transactions
        unbounded = miner(transactions, min_support=2, max_patterns=1_000_000)
        exact = miner(transactions, min_support=2, max_patterns=len(unbounded))
        assert len(exact) == len(unbounded)
        assert exact.as_dict() == unbounded.as_dict()

    @pytest.mark.parametrize("miner", ALL_MINERS)
    def test_trips_at_budget_plus_one(self, miner, tiny_transactions):
        transactions = tiny_transactions.transactions
        unbounded = miner(transactions, min_support=2, max_patterns=1_000_000)
        budget = len(unbounded) - 1
        assert budget >= 1
        with pytest.raises(PatternBudgetExceeded) as excinfo:
            miner(transactions, min_support=2, max_patterns=budget)
        assert excinfo.value.budget == budget
        assert excinfo.value.emitted == budget + 1
        assert excinfo.value.emitted <= len(unbounded)

    @pytest.mark.parametrize("miner", ALL_MINERS)
    def test_emitted_is_lower_bound(self, miner, tiny_transactions):
        transactions = tiny_transactions.transactions
        with pytest.raises(PatternBudgetExceeded) as excinfo:
            miner(transactions, min_support=1, max_patterns=10)
        true_count = len(miner(transactions, 1))
        assert 10 < excinfo.value.emitted <= true_count

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
        with pytest.raises(MiningTimeLimitExceeded) as excinfo:
            with _wall_clock_limit(0.2):
                _sleepy_miner(tiny_transactions.transactions, min_support=2)
        elapsed = time.perf_counter() - start
        assert excinfo.value.time_limit == 0.2
        assert "wall-clock limit" in str(excinfo.value)
        assert elapsed < 5.0

    def test_fast_run_unaffected_by_limit(self, tiny_transactions):
        with _obs.session() as sess:
            limited = mine_class_patterns(
                tiny_transactions, min_support=0.3, time_limit=30.0,
                on_guard="items_only",
            )
        plain = mine_class_patterns(tiny_transactions, min_support=0.3)
        assert limited.as_dict() == plain.as_dict()
        assert "mining.generation.degraded_partitions" not in sess.counters

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


class TestPartitionCacheKey:
    """A partition artifact is only reused by a run with the same guard
    settings: degraded artifacts must never satisfy a raising run."""

    def test_degraded_partitions_do_not_satisfy_a_raising_run(
        self, tmp_path, planted_transactions
    ):
        from repro.runtime.cache import ArtifactCache

        cache = ArtifactCache(tmp_path)
        budget = dict(min_support=0.05, max_length=4, max_patterns=20)
        with _obs.session() as sess:
            mine_class_patterns(
                planted_transactions, **budget, on_guard="items_only", cache=cache
            )
        assert sess.counters["mining.generation.degraded_partitions"] > 0
        with pytest.raises(PatternBudgetExceeded):
            mine_class_patterns(planted_transactions, **budget, cache=cache)

    def test_time_limit_is_part_of_the_key(self, tmp_path, tiny_transactions):
        from repro.runtime.cache import ArtifactCache

        cache = ArtifactCache(tmp_path)
        mine_class_patterns(tiny_transactions, min_support=0.3, cache=cache)
        with _obs.session() as sess:
            mine_class_patterns(
                tiny_transactions, min_support=0.3, cache=cache, time_limit=30.0
            )
        assert not [e for e in sess.events if e["kind"] == "stage_skipped"]
        assert sess.counters["runtime.cache.writes"] == len(
            tiny_transactions.class_partition()
        )


class TestPartitionArtifactFormat:
    """``mine_partition`` artifacts written by the Pattern-list code (one
    envelope per class partition of ``tiny_transactions`` at min_support
    0.25) restore unchanged, and fresh ones are the same bytes."""

    FIXTURE = Path(__file__).parent / "data" / "mine_partition_v1"

    def test_earlier_artifacts_restore(self, tmp_path, tiny_transactions):
        from repro.runtime.cache import ArtifactCache

        stored = sorted(self.FIXTURE.glob("*.json"))
        assert len(stored) == tiny_transactions.n_classes
        shutil.copytree(self.FIXTURE, tmp_path / "mine_partition")
        with _obs.session() as sess:
            restored = mine_class_patterns(
                tiny_transactions, min_support=0.25, cache=ArtifactCache(tmp_path)
            )
        skipped = [e for e in sess.events if e["kind"] == "stage_skipped"]
        assert len(skipped) == len(stored)
        assert sess.counters.get("runtime.cache.writes", 0) == 0
        fresh = mine_class_patterns(tiny_transactions, min_support=0.25)
        assert restored.itemsets == fresh.itemsets
        assert np.array_equal(restored.counts, fresh.counts)

    def test_fresh_artifacts_are_the_same_bytes(self, tmp_path, tiny_transactions):
        from repro.runtime.cache import ArtifactCache

        mine_class_patterns(
            tiny_transactions, min_support=0.25, cache=ArtifactCache(tmp_path)
        )
        written = sorted((tmp_path / "mine_partition").glob("*.json"))
        assert [p.name for p in written] == [
            p.name for p in sorted(self.FIXTURE.glob("*.json"))
        ]
        for path in written:
            assert path.read_bytes() == (self.FIXTURE / path.name).read_bytes()
