"""Tests for per-class feature generation and guarded mining."""

import inspect
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.shards import shard_dataset
from repro.datasets import TransactionDataset
from repro.mining import (
    MiningResult,
    PatternBudgetExceeded,
    closed_fpgrowth,
    frequent_itemsets,
    mine_class_patterns,
    mine_sharded,
)
from repro.obs import core as _obs
from repro.runtime.cache import ArtifactCache
from repro.selection import ddpmine
from tests.oracles.itemset_miners import apriori, charm
from tests.oracles.strategies import supports, transactions
from tests.oracles.transactions import class_partition

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
        partition = class_partition(planted_transactions)
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

    def test_same_keywords_as_mine_sharded(self):
        """The batch and sharded drivers differ only in where rows live."""
        batch = list(inspect.signature(mine_class_patterns).parameters.values())
        sharded = list(inspect.signature(mine_sharded).parameters.values())
        assert batch[1:] == sharded[1:]


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
                on_guard="items_only",
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
        partitions = len(class_partition(planted_transactions))
        assert sess.counters["mining.generation.degraded_partitions"] == partitions
        assert len(result) == 0
        guards = {
            e["attrs"]["guard"] for e in sess.events if e["kind"] == "warning"
        }
        assert guards == {"budget"}

    def test_elapsed_recorded(self, tiny_transactions):
        with _obs.session() as sess:
            mine_class_patterns(
                tiny_transactions, min_support=0.3, on_guard="items_only"
            )
        wall = sess.histograms["mining.partition.wall_s"]
        assert wall.count == len(class_partition(tiny_transactions))
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


class TestPartitionArtifactFormat:
    """``mine_partition`` artifacts (one envelope per class partition of
    ``tiny_transactions`` at min_support 0.25, each an itemset list)
    restore unchanged, and fresh ones are the same bytes.  Artifacts of
    the earlier per-pattern format are recomputed, never parsed."""

    FIXTURE = Path(__file__).parent / "data" / "mine_partition_v2"
    V1_FIXTURE = Path(__file__).parent / "data" / "mine_partition_v1"

    def test_earlier_artifacts_restore(self, tmp_path, tiny_transactions):
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
        mine_class_patterns(
            tiny_transactions, min_support=0.25, cache=ArtifactCache(tmp_path)
        )
        written = sorted((tmp_path / "mine_partition").glob("*.json"))
        assert [p.name for p in written] == [
            p.name for p in sorted(self.FIXTURE.glob("*.json"))
        ]
        for path in written:
            assert path.read_bytes() == (self.FIXTURE / path.name).read_bytes()

    def test_v1_artifacts_are_recomputed_once(self, tmp_path, tiny_transactions):
        v1 = {p.name: p.read_bytes() for p in self.V1_FIXTURE.glob("*.json")}
        assert len(v1) == tiny_transactions.n_classes
        shutil.copytree(self.V1_FIXTURE, tmp_path / "mine_partition")
        cache = ArtifactCache(tmp_path)
        fresh = mine_class_patterns(tiny_transactions, min_support=0.25)
        for writes in (len(v1), 0):
            with _obs.session() as sess:
                result = mine_class_patterns(
                    tiny_transactions, min_support=0.25, cache=cache
                )
            skipped = [e for e in sess.events if e["kind"] == "stage_skipped"]
            assert len(skipped) == len(v1) - writes
            assert sess.counters.get("runtime.cache.writes", 0) == writes
            assert result.itemsets == fresh.itemsets
            assert np.array_equal(result.counts, fresh.counts)
        # The v1 envelopes are left as they were, beside the v2 ones.
        stored = {
            p.name: p.read_bytes()
            for p in (tmp_path / "mine_partition").glob("*.json")
        }
        assert {name: stored[name] for name in v1} == v1
        assert sorted(set(stored) - set(v1)) == sorted(
            p.name for p in self.FIXTURE.glob("*.json")
        )


@st.composite
def cached_mining_cases(draw):
    """A random labelled database and ``mine_class_patterns`` arguments,
    with budgets small enough to trip some partitions."""
    rows = draw(transactions())
    labels = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    data = TransactionDataset(
        [tuple(sorted(set(row))) for row in rows], labels, n_items=8, n_classes=3
    )
    return data, dict(
        min_support=draw(st.sampled_from([0.05, 0.2, 0.5, 1.0])),
        miner=draw(st.sampled_from(["closed", "all"])),
        max_length=draw(st.sampled_from([None, 2, 3])),
        max_patterns=draw(st.one_of(st.none(), st.integers(0, 16))),
    )


#: Class 0's 15 frequent itemsets trip a budget of 3; class 1's one does not.
ONE_PARTITION_TRIPS = (
    TransactionDataset([(0, 1, 2, 3)] * 3 + [(4,)] * 3, [0] * 3 + [1] * 3, n_items=5),
    dict(min_support=0.5, miner="all", max_length=None, max_patterns=3),
)


class TestCacheRoundTrip:
    """A second cached run restores every partition artifact — fresh ones
    hold tuples, restored ones lists — into the uncached run's table,
    under either guard behavior."""

    @pytest.mark.parametrize("on_guard", ["raise", "items_only"])
    @settings(max_examples=60, deadline=None)
    @given(case=cached_mining_cases())
    @example(case=ONE_PARTITION_TRIPS)
    def test_second_run_restores_every_partition(
        self, tmp_path_factory, on_guard, case
    ):
        data, kwargs = case
        kwargs = dict(kwargs, on_guard=on_guard)
        cache = ArtifactCache(tmp_path_factory.mktemp("cache"))
        try:
            with _obs.session() as plain_sess:
                plain = mine_class_patterns(data, **kwargs)
        except PatternBudgetExceeded:
            assert on_guard == "raise"
            with pytest.raises(PatternBudgetExceeded):
                mine_class_patterns(data, **kwargs, cache=cache)
            return
        partitions = sum(1 for rows in class_partition(data).values() if rows)
        with _obs.session() as first_sess:
            first = mine_class_patterns(data, **kwargs, cache=cache)
        assert first_sess.counters.get("runtime.cache.writes", 0) == partitions
        with _obs.session() as sess:
            restored = mine_class_patterns(data, **kwargs, cache=cache)
        skipped = [e for e in sess.events if e["kind"] == "stage_skipped"]
        assert len(skipped) == partitions
        assert sess.counters.get("runtime.cache.writes", 0) == 0
        degraded = "mining.generation.degraded_partitions"
        for table, run in ((first, first_sess), (restored, sess)):
            assert run.counters.get(degraded) == plain_sess.counters.get(degraded)
            assert table.itemsets == plain.itemsets
            assert all(type(items) is tuple for items in table.itemsets)
            assert np.array_equal(table.counts, plain.counts)
            assert table.min_support == plain.min_support
