"""Differential suite: TopKMiner must equal its batch oracle exactly.

The oracle is the discipline the ISSUE names: mine the batch with the
established miners, score every pattern with the same
``information_gain_batch`` kernel, rank by the shared
:func:`repro.streaming.topk.rank_key`, take ``k``.  Both sides compute
IG from identical integer count arrays through the identical kernel,
so "equal" means *exact* equality — items, supports, class counts and
IG floats, in order — not equality up to tolerance or tie shuffling.

This pins the soundness of the subtree bound the miner prunes with
(:func:`repro.measures.vectorized.ig_subtree_bound`: the best class
vertex, or the entropy caps above the class cap) across
hypothesis-generated databases with skewed priors (p > 1/2) and 2-5
classes, where an unsound bound would silently drop true winners.

Also here: the ``suggest_min_support`` round-trip satellite — the
top-k result's IG threshold maps back through the paper's ``theta*``
machinery to a min_sup that batch-recovers every strictly-better
pattern, and the k-th pattern's own support batch-reproduces the top-k
set exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.transactions import TransactionDataset
from repro.measures.vectorized import _VERTEX_CLASS_CAP, information_gain_batch
from repro.mining.frequent import frequent_itemsets
from repro.obs import core as _obs
from repro.selection.minsup import suggest_min_support
from repro.streaming import topk as topk_module
from repro.streaming.topk import (
    FrontierCapExceeded,
    TopKMiner,
    TopKResult,
    rank_key,
)

EXAMPLES = 120


def labeled_databases(n_classes: int = 2, n_items: int = 8):
    """Random small labeled transaction databases."""
    row = st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=n_items - 1), min_size=1, max_size=5
        ),
        st.integers(min_value=0, max_value=n_classes - 1),
    )
    return st.lists(row, min_size=1, max_size=24).map(
        lambda rows: TransactionDataset(
            [r[0] for r in rows],
            [r[1] for r in rows],
            n_items=n_items,
            n_classes=n_classes,
        )
    )


def oracle_topk(
    data: TransactionDataset,
    k: int,
    min_support: int = 1,
    min_length: int = 1,
    max_length: int | None = None,
) -> list[tuple[tuple[int, ...], int, tuple[int, ...], float]]:
    """Batch-mine, IG-score, rank, take k — the differential oracle.

    Returns ``(items, support, class_counts, ig)`` rows in rank order.
    """
    result = frequent_itemsets(data.transactions, min_support, max_length=max_length)
    class_totals = data.class_counts().astype(np.int64)
    scored = []
    for pattern in result.patterns:
        if len(pattern.items) < min_length:
            continue
        counts = np.asarray(
            data.class_support_counts(pattern.items), dtype=np.int64
        )
        ig = float(
            information_gain_batch(
                counts[np.newaxis, :].astype(float),
                (class_totals - counts)[np.newaxis, :].astype(float),
            )[0]
        )
        scored.append(
            (pattern.items, pattern.support, tuple(int(c) for c in counts), ig)
        )
    scored.sort(key=lambda row: rank_key(row[3], row[0]))
    return scored[:k]


def as_rows(result: TopKResult):
    return [
        (s.pattern.items, s.pattern.support, s.class_counts, s.ig)
        for s in result.ranked
    ]


class TestDifferential:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=labeled_databases(), k=st.integers(min_value=1, max_value=12))
    def test_topk_equals_exhaustive_batch_oracle(self, data, k):
        result = TopKMiner(k=k).mine(data)
        assert as_rows(result) == oracle_topk(data, k)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        data=st.integers(min_value=2, max_value=5).flatmap(labeled_databases),
        k=st.integers(min_value=1, max_value=10),
    )
    def test_topk_exact_for_multiclass(self, data, k):
        result = TopKMiner(k=k).mine(data)
        assert as_rows(result) == oracle_topk(data, k)

    def test_topk_exact_above_the_class_cap(self):
        """More classes than the vertex cap: the entropy caps prune."""
        n_classes = _VERTEX_CLASS_CAP + 1
        rng = np.random.default_rng(11)
        labels = rng.integers(0, n_classes, size=90)
        transactions = [
            sorted({int(label) % 8, *rng.choice(8, size=3).tolist()})
            for label in labels
        ]
        data = TransactionDataset(
            transactions, labels.tolist(), n_items=8, n_classes=n_classes
        )
        result = TopKMiner(k=10).mine(data)
        assert as_rows(result) == oracle_topk(data, 10)
        assert result.subtrees_pruned > 0

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        data=labeled_databases(),
        k=st.integers(min_value=1, max_value=8),
        max_length=st.integers(min_value=1, max_value=4),
    )
    def test_topk_respects_length_window(self, data, k, max_length):
        result = TopKMiner(k=k, max_length=max_length).mine(data)
        assert as_rows(result) == oracle_topk(data, k, max_length=max_length)
        assert all(len(s.pattern.items) <= max_length for s in result.ranked)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=labeled_databases(), k=st.integers(min_value=1, max_value=8))
    def test_exact_mode_bound_agrees_with_paper_mode(self, data, k):
        # bound_mode has no effect on the search.
        paper = TopKMiner(k=k, bound_mode="paper").mine(data)
        exact = TopKMiner(k=k, bound_mode="exact").mine(data)
        assert as_rows(paper) == as_rows(exact)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=labeled_databases(), k=st.integers(min_value=1, max_value=8))
    def test_batch_at_implied_min_support_reproduces_topk(self, data, k):
        """The ISSUE's round-trip: the k-th pattern's support is a valid
        min_sup — batch mining there and re-ranking yields the same set."""
        result = TopKMiner(k=k).mine(data)
        replay = oracle_topk(data, k, min_support=result.implied_min_support)
        assert as_rows(result) == replay

    def test_skewed_prior_regression(self):
        """p(c=1) > 1/2: the raw paper-mode IG_ub under-bounds here, so a
        pruner built on it would drop true winners.  Fixed seed, dense check."""
        rng = np.random.default_rng(7)
        transactions, labels = [], []
        for _ in range(60):
            label = int(rng.random() < 0.8)
            base = [0, 1] if label else [2, 3]
            extra = rng.choice(8, size=2, replace=False).tolist()
            transactions.append(sorted(set(base + extra)))
            labels.append(label)
        data = TransactionDataset(transactions, labels, n_items=8)
        result = TopKMiner(k=10).mine(data)
        assert as_rows(result) == oracle_topk(data, 10)
        assert result.subtrees_pruned > 0  # the bound still prunes


class TestMinSupportRoundTrip:
    """Satellite: suggest_min_support round-trip against TopKMiner."""

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=labeled_databases(), k=st.integers(min_value=1, max_value=8))
    def test_suggested_min_sup_recovers_strictly_better_patterns(self, data, k):
        result = TopKMiner(k=k).mine(data)
        threshold = result.threshold_ig
        if threshold <= 0.0:
            return  # fewer than k patterns exist, or all are uninformative
        suggestion = suggest_min_support(data.labels, threshold)
        batch = {
            items
            for items, _, _, _ in oracle_topk(
                data, k, min_support=suggestion.absolute
            )
        }
        # theta* guarantees IG > IG0 implies support >= suggested min_sup;
        # patterns *at* the threshold carry no such guarantee, so only the
        # strictly-better ones must survive the cut.
        for scored in result.ranked:
            if scored.ig > threshold:
                assert scored.pattern.items in batch
                assert scored.pattern.support >= suggestion.absolute

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=labeled_databases(), k=st.integers(min_value=1, max_value=8))
    def test_implied_min_support_is_tight(self, data, k):
        result = TopKMiner(k=k).mine(data)
        if len(result) < k:
            assert result.implied_min_support == 1
        else:
            supports = [s.pattern.support for s in result.ranked]
            assert result.implied_min_support == min(supports)
            assert all(s >= result.implied_min_support for s in supports)


class TestEdges:
    def test_empty_dataset(self):
        data = TransactionDataset([], [], n_items=4, n_classes=2)
        result = TopKMiner(k=3).mine(data)
        assert len(result) == 0
        assert result.threshold_ig == 0.0
        assert result.implied_min_support == 1

    def test_fewer_patterns_than_k(self):
        data = TransactionDataset([(0,), (0,)], [0, 1], n_items=1, n_classes=2)
        result = TopKMiner(k=10).mine(data)
        assert len(result) == 1
        assert result.threshold_ig == 0.0

    def test_min_length_filters_results_but_not_search(self):
        data = TransactionDataset(
            [(0, 1), (0, 1), (2,), (2, 3)], [0, 0, 1, 1], n_items=4
        )
        result = TopKMiner(k=10, min_length=2).mine(data)
        assert all(len(s.pattern.items) >= 2 for s in result.ranked)
        assert as_rows(result) == oracle_topk(data, 10, min_length=2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TopKMiner(k=0)
        with pytest.raises(ValueError):
            TopKMiner(k=1, min_length=0)
        with pytest.raises(ValueError):
            TopKMiner(k=1, min_length=3, max_length=2)
        with pytest.raises(ValueError):
            TopKMiner(k=1, frontier_cap=0)

    @staticmethod
    def _unprunable():
        # Uniform labels make every IG zero, so nothing can be pruned and
        # the frontier must grow past any tiny cap.
        rng = np.random.default_rng(3)
        transactions = [
            tuple(sorted(rng.choice(12, size=6, replace=False).tolist()))
            for _ in range(40)
        ]
        return TransactionDataset(transactions, [0] * 40, n_items=12, n_classes=2)

    def test_frontier_cap_trips_loudly(self):
        data = self._unprunable()
        with pytest.raises(FrontierCapExceeded) as excinfo:
            TopKMiner(k=2, frontier_cap=4).mine(data)
        assert excinfo.value.cap == 4
        assert excinfo.value.size > 4
        # Checked after each pop batch: the tripping size never exceeds
        # the frontier an uncapped run holds.
        assert excinfo.value.size <= TopKMiner(k=2).mine(data).frontier_peak

    def test_frontier_cap_trips_at_batch_granularity(self, monkeypatch):
        data = self._unprunable()
        sizes = {}
        for pop_batch in (1, 4, topk_module._POP_BATCH):
            monkeypatch.setattr(topk_module, "_POP_BATCH", pop_batch)
            with pytest.raises(FrontierCapExceeded) as excinfo:
                TopKMiner(k=2, frontier_cap=20).mine(data)
            sizes[pop_batch] = excinfo.value.size
        # The root leaves 11 entries; the check runs only once a whole
        # batch has been expanded, so bigger batches trip at bigger sizes.
        assert all(size > 20 for size in sizes.values())
        assert sizes[1] <= sizes[4] <= sizes[topk_module._POP_BATCH]
        assert sizes[1] < sizes[topk_module._POP_BATCH]

    def test_generous_frontier_cap_does_not_change_results(self):
        rng = np.random.default_rng(4)
        transactions, labels = [], []
        for _ in range(50):
            label = int(rng.integers(0, 2))
            base = [0] if label else [1]
            transactions.append(
                sorted(set(base + rng.choice(8, size=3).tolist()))
            )
            labels.append(label)
        data = TransactionDataset(transactions, labels, n_items=8)
        capped = TopKMiner(k=5, frontier_cap=10_000).mine(data)
        free = TopKMiner(k=5).mine(data)
        assert as_rows(capped) == as_rows(free)

    def test_pop_batch_straddling_a_threshold_rise_with_ties(self, monkeypatch):
        # Every item has an identical twin, so IG ties are everywhere, and
        # the k-th best IG rises while one pop batch is being walked.
        rng = np.random.default_rng(15)
        labels = rng.integers(0, 2, size=30)
        transactions = []
        for label in labels:
            base = [
                i for i in range(4)
                if rng.random() < (0.6 if i % 2 == label else 0.3)
            ]
            transactions.append(tuple(sorted(base + [i + 4 for i in base])))
        data = TransactionDataset(transactions, labels.tolist(), n_items=8)
        batched = TopKMiner(k=6, max_length=3).mine(data)
        monkeypatch.setattr(topk_module, "_POP_BATCH", 1)
        one_at_a_time = TopKMiner(k=6, max_length=3).mine(data)
        ties = [s for s in batched.ranked if s.ig == batched.threshold_ig]
        assert len(ties) >= 2
        # The batch expanded nodes a one-at-a-time search pruned ...
        assert batched.nodes_expanded > one_at_a_time.nodes_expanded
        # ... and both still equal the oracle, tie order included.
        expected = oracle_topk(data, 6, max_length=3)
        assert as_rows(batched) == expected
        assert as_rows(one_at_a_time) == expected

    def test_pair_counting_blocks_do_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=60).tolist()
        transactions = [
            tuple(sorted(set(rng.choice(10, size=4).tolist()))) for _ in labels
        ]
        data = TransactionDataset(transactions, labels, n_items=10, n_classes=3)
        whole = TopKMiner(k=8).mine(data)
        # One (node, child) pair per counting block.
        monkeypatch.setattr(topk_module, "_PAIR_BLOCK_BYTES", 1)
        blocked = TopKMiner(k=8).mine(data)
        assert as_rows(blocked) == as_rows(whole) == oracle_topk(data, 8)
        assert blocked.nodes_expanded == whole.nodes_expanded

    def test_search_counters_repeat_exactly(self):
        data = TransactionDataset(
            [(0, 1, 3), (0, 2), (1, 2, 3), (0, 1), (2, 3), (0, 3)] * 4,
            [0, 0, 1, 0, 1, 1] * 4,
            n_items=4,
        )

        def counters():
            with _obs.session() as session:
                TopKMiner(k=3).mine(data)
                exported = session.export()["counters"]
            return {
                name: value
                for name, value in exported.items()
                if name.startswith("streaming.topk.")
            }

        first = counters()
        assert first["streaming.topk.runs"] == 1
        assert first["streaming.topk.nodes_expanded"] > 0
        assert counters() == first

    def test_mining_result_view(self):
        data = TransactionDataset(
            [(0, 1), (0,), (1,), (2,)], [0, 0, 1, 1], n_items=3
        )
        result = TopKMiner(k=3).mine(data)
        view = result.mining_result()
        assert view.patterns == result.patterns
        assert view.min_support == result.implied_min_support
        assert view.n_rows == data.n_rows
