"""Tests for MMRFS (Algorithm 1), redundancy and relevance measures."""

import numpy as np
import pytest

from repro.core.bitset import pack_bits
from repro.datasets import TransactionDataset
from repro.measures import ContingencyTables
from repro.mining import Pattern, mine_class_patterns
from repro.selection import (
    FisherScoreRelevance,
    InformationGainRelevance,
    get_relevance,
    mmrfs,
    suggest_min_support,
    top_k_by_relevance,
)
from repro.obs.core import session
from repro.selection.redundancy import batch_redundancy_packed
from tests.oracles.bounds import jaccard, weighted_jaccard_redundancy
from tests.oracles.mmrfs_dense import batch_redundancy, mmrfs_dense
from tests.oracles.scoring import batch_pattern_stats, information_gain


class TestJaccard:
    def test_identical_coverage(self):
        assert jaccard(10, 10, 10) == 1.0

    def test_disjoint(self):
        assert jaccard(5, 5, 0) == 0.0

    def test_partial(self):
        assert jaccard(10, 10, 5) == pytest.approx(5 / 15)

    def test_empty_union(self):
        assert jaccard(0, 0, 0) == 0.0

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError):
            jaccard(3, 3, 5)

    def test_weighted_uses_min_relevance(self):
        value = weighted_jaccard_redundancy(10, 10, 10, 0.8, 0.2)
        assert value == pytest.approx(0.2)


class TestBatchRedundancy:
    def test_matches_scalar_formula(self, rng):
        """The library's one Eq. 9 kernel against the one-pair oracle."""
        n_rows = 30
        coverage = rng.random((4, n_rows)) < 0.5
        supports = coverage.sum(axis=1)
        relevances = rng.random(4)
        new_coverage = rng.random(n_rows) < 0.5
        new_support = int(new_coverage.sum())
        result = batch_redundancy_packed(
            np.ascontiguousarray(pack_bits(coverage).T),
            supports,
            relevances,
            pack_bits(new_coverage[np.newaxis, :])[0],
            new_support,
            0.5,
        )
        for k in range(4):
            both = int((coverage[k] & new_coverage).sum())
            expected = weighted_jaccard_redundancy(
                int(supports[k]), new_support, both, float(relevances[k]), 0.5
            )
            assert result[k] == pytest.approx(expected)

    def test_zero_support_new_pattern(self):
        coverage = np.ones((2, 5), dtype=bool)
        result = batch_redundancy(
            coverage, np.array([5, 5]), np.array([1.0, 1.0]),
            np.zeros(5, dtype=bool), 0, 1.0,
        )
        assert (result == 0).all()


class TestRelevanceRegistry:
    def test_lookup_by_name(self):
        assert isinstance(get_relevance("information_gain"), InformationGainRelevance)
        assert isinstance(get_relevance("ig"), InformationGainRelevance)
        assert isinstance(get_relevance("fisher"), FisherScoreRelevance)

    def test_passthrough_callable(self):
        measure = FisherScoreRelevance()
        assert get_relevance(measure) is measure

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown relevance"):
            get_relevance("bogus")

    def test_scalar_callable_rejected(self):
        with pytest.raises(TypeError, match="batch"):
            get_relevance(lambda stats: 0.0)

    def test_fisher_cap_applied(self):
        perfect = ContingencyTables(
            present=np.array([[0, 10]]), absent=np.array([[10, 0]])
        )
        assert FisherScoreRelevance(cap=99.0).batch(perfect).tolist() == [99.0]


class TestMMRFS:
    @pytest.fixture(scope="class")
    def mined(self, planted_transactions):
        return mine_class_patterns(planted_transactions, min_support=0.2)

    def test_first_selected_is_most_relevant(self, mined, planted_transactions):
        result = mmrfs(mined.patterns, planted_transactions, delta=1)
        stats = batch_pattern_stats(mined.patterns, planted_transactions)
        gains = [information_gain(s) for s in stats]
        assert result.selected[0].relevance == pytest.approx(max(gains))

    def test_selection_order_recorded(self, mined, planted_transactions):
        result = mmrfs(mined.patterns, planted_transactions, delta=2)
        assert [f.order for f in result.selected] == list(range(len(result)))

    def test_gains_never_exceed_relevance(self, mined, planted_transactions):
        result = mmrfs(mined.patterns, planted_transactions, delta=2)
        for feature in result.selected:
            assert feature.gain <= feature.relevance + 1e-9

    def test_coverage_termination_invariant(self, mined, planted_transactions):
        """Any row still under the delta target has exhausted its correct
        covers: every candidate correctly covering it was selected."""
        delta = 2
        result = mmrfs(mined.patterns, planted_transactions, delta=delta)
        data = planted_transactions
        stats = batch_pattern_stats(mined.patterns, data)
        total_correct = np.zeros(data.n_rows, dtype=np.int64)
        for pattern, stat in zip(mined.patterns, stats):
            majority = int(np.argmax(stat.present))
            mask = data.covers(pattern.items) & (data.labels == majority)
            total_correct += mask
        under = result.coverage_counts < delta
        assert (result.coverage_counts[under] == total_correct[under]).all()

    def test_higher_delta_selects_more(self, mined, planted_transactions):
        small = mmrfs(mined.patterns, planted_transactions, delta=1)
        large = mmrfs(mined.patterns, planted_transactions, delta=4)
        assert len(large) >= len(small)

    def test_max_selected_cap(self, mined, planted_transactions):
        result = mmrfs(mined.patterns, planted_transactions, delta=10, max_selected=5)
        assert len(result) == 5

    def test_no_duplicates(self, mined, planted_transactions):
        result = mmrfs(mined.patterns, planted_transactions, delta=3)
        itemsets = [f.pattern.items for f in result.selected]
        assert len(set(itemsets)) == len(itemsets)

    def test_empty_candidates(self, planted_transactions):
        result = mmrfs([], planted_transactions, delta=1)
        assert len(result) == 0
        assert not result.fully_covered or planted_transactions.n_rows == 0

    def test_invalid_delta(self, mined, planted_transactions):
        with pytest.raises(ValueError):
            mmrfs(mined.patterns, planted_transactions, delta=0)

    def test_fisher_relevance_works(self, mined, planted_transactions):
        result = mmrfs(
            mined.patterns, planted_transactions, relevance="fisher", delta=1
        )
        assert len(result) >= 1

    def test_identical_patterns_deduplicated_by_redundancy(self):
        """A duplicate of a selected pattern has gain ~0 and loses."""
        transactions = [(0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3)]
        labels = [0, 0, 0, 1, 1, 1]
        data = TransactionDataset(transactions, labels, n_items=4)
        patterns = [
            Pattern(items=(0, 1), support=3),
            Pattern(items=(0, 1), support=3),  # exact duplicate
            Pattern(items=(2, 3), support=3),
        ]
        result = mmrfs(patterns, data, delta=1)
        chosen = [f.pattern.items for f in result.selected]
        # The duplicate is never needed: both classes get covered by the
        # two distinct patterns first.
        assert chosen.count((0, 1)) <= 1 or len(chosen) <= 2


class TestEngineParity:
    """The packed, epoch-scanning selection must be *bit-for-bit* the dense
    one-round-per-candidate oracle: same patterns in the same order, with
    exactly equal floats and the same round counters."""

    @pytest.fixture(scope="class", params=["tiny", "planted"])
    def workload(self, request, tiny_transactions, planted_transactions):
        data = {
            "tiny": tiny_transactions, "planted": planted_transactions
        }[request.param]
        min_support = 0.3 if request.param == "tiny" else 0.2
        mined = mine_class_patterns(data, min_support=min_support)
        return data, mined.patterns

    @pytest.mark.parametrize("relevance", ["information_gain", "fisher"])
    @pytest.mark.parametrize("delta", [1, 3])
    def test_bitset_matches_dense_exactly(self, workload, relevance, delta):
        data, patterns = workload
        with session() as sess:
            bitset = mmrfs(patterns, data, relevance=relevance, delta=delta)
        dense, run = mmrfs_dense(patterns, data, relevance=relevance, delta=delta)
        assert len(bitset) == len(dense)
        for b, d in zip(bitset.selected, dense.selected):
            assert b.pattern == d.pattern
            assert b.order == d.order
            # Exact equality, not approx: the packed kernel is required to
            # perform the same float arithmetic as the dense one.
            assert b.relevance == d.relevance
            assert b.gain == d.gain
        assert np.array_equal(bitset.coverage_counts, dense.coverage_counts)
        assert bitset.fully_covered == dense.fully_covered
        assert bitset.considered == dense.considered
        assert sess.counters["selection.mmrfs.rounds"] == run.rounds
        assert sess.counters["selection.mmrfs.rejected"] == run.rejected
        assert sess.series["selection.mmrfs.covered_rows"] == run.covered_rows


class TestIncrementalUndercoverageMask:
    """The fast path keeps its packed under-coverage mask fixed within an
    epoch and rejects a whole prefix of the gain order at once; selections
    must be unchanged from the dense loop that re-tests every probe, and
    probes that cannot advance coverage must still be rejected."""

    @pytest.mark.parametrize("delta", [1, 2, 5])
    def test_selections_unchanged_across_engines(
        self, planted_transactions, delta
    ):
        mined = mine_class_patterns(planted_transactions, min_support=0.2)
        bitset = mmrfs(mined.patterns, planted_transactions, delta=delta)
        dense, _ = mmrfs_dense(mined.patterns, planted_transactions, delta=delta)
        assert [f.pattern for f in bitset.selected] == [
            f.pattern for f in dense.selected
        ]
        assert [f.gain for f in bitset.selected] == [
            f.gain for f in dense.selected
        ]
        assert np.array_equal(bitset.coverage_counts, dense.coverage_counts)

    def test_rejections_still_happen(self, planted_transactions):
        """A high delta forces redundant-coverage probes; the bulk scan
        must reject exactly the probes the dense loop rejects."""
        mined = mine_class_patterns(planted_transactions, min_support=0.2)
        with session() as sess:
            result = mmrfs(mined.patterns, planted_transactions, delta=8)
        _, run = mmrfs_dense(mined.patterns, planted_transactions, delta=8)
        assert sess.counters["selection.mmrfs.rejected"] > 0
        assert sess.counters["selection.mmrfs.rejected"] == run.rejected
        assert sess.counters["selection.mmrfs.accepted"] == len(result)

    def test_mask_reflects_final_coverage(self, planted_transactions):
        """After selection stops, a duplicate run from the recorded
        coverage agrees with the result's own fully_covered verdict."""
        mined = mine_class_patterns(planted_transactions, min_support=0.2)
        result = mmrfs(mined.patterns, planted_transactions, delta=2)
        undercovered = result.coverage_counts < result.delta
        assert result.fully_covered == (not undercovered.any())


class TestTopK:
    def test_returns_k_highest(self, planted_transactions):
        mined = mine_class_patterns(planted_transactions, min_support=0.2)
        result = top_k_by_relevance(mined.patterns, planted_transactions, k=5)
        assert len(result) == 5
        relevances = [f.relevance for f in result.selected]
        assert relevances == sorted(relevances, reverse=True)

    def test_k_zero(self, planted_transactions):
        mined = mine_class_patterns(planted_transactions, min_support=0.2)
        assert len(top_k_by_relevance(mined.patterns, planted_transactions, 0)) == 0

    def test_negative_k(self, planted_transactions):
        with pytest.raises(ValueError):
            top_k_by_relevance([], planted_transactions, -1)


class TestTopKCoverageSemantics:
    """top_k reports delta=1 coverage; fully_covered is no longer the
    vacuous ``coverage_counts >= 0`` of the old delta=0 result."""

    @pytest.fixture()
    def split_data(self):
        # Item 0 marks class 0 (3 rows), item 1 marks class 1 (3 rows).
        transactions = [(0,), (0,), (0,), (1,), (1,), (1,)]
        labels = [0, 0, 0, 1, 1, 1]
        return TransactionDataset(transactions, labels, n_items=2)

    def test_delta_is_one(self, split_data):
        patterns = [Pattern(items=(0,), support=3), Pattern(items=(1,), support=3)]
        result = top_k_by_relevance(patterns, split_data, k=2)
        assert result.delta == 1

    def test_partial_coverage_not_fully_covered(self, split_data):
        """Keeping only the class-0 pattern leaves class-1 rows uncovered —
        the old delta=0 semantics reported this as fully covered."""
        patterns = [Pattern(items=(0,), support=3), Pattern(items=(1,), support=3)]
        result = top_k_by_relevance(patterns, split_data, k=1)
        assert not result.fully_covered
        assert (result.coverage_counts == [1, 1, 1, 0, 0, 0]).all() or (
            result.coverage_counts == [0, 0, 0, 1, 1, 1]
        ).all()

    def test_complete_coverage_detected(self, split_data):
        patterns = [Pattern(items=(0,), support=3), Pattern(items=(1,), support=3)]
        result = top_k_by_relevance(patterns, split_data, k=2)
        assert result.fully_covered

    def test_k_zero_on_nonempty_data_is_uncovered(self, split_data):
        result = top_k_by_relevance(
            [Pattern(items=(0,), support=3)], split_data, k=0
        )
        assert not result.fully_covered


class TestSuggestMinSupport:
    def test_binary_labels(self):
        labels = np.array([0] * 60 + [1] * 40)
        suggestion = suggest_min_support(labels, ig0=0.1)
        assert 0.0 < suggestion.theta < 0.4
        assert suggestion.absolute >= 1
        assert len(suggestion.per_class_theta) == 2

    def test_conservative_over_classes(self):
        labels = np.array([0] * 80 + [1] * 10 + [2] * 10)
        suggestion = suggest_min_support(labels, ig0=0.05)
        assert suggestion.theta == min(suggestion.per_class_theta)

    def test_monotone_in_ig0(self):
        labels = np.array([0] * 50 + [1] * 50)
        low = suggest_min_support(labels, ig0=0.02)
        high = suggest_min_support(labels, ig0=0.2)
        assert high.theta >= low.theta

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            suggest_min_support(np.array([]), ig0=0.1)

    def test_negative_ig0_rejected(self):
        with pytest.raises(ValueError):
            suggest_min_support(np.array([0, 1]), ig0=-0.1)


class TestSuggestMinSupportClassAlignment:
    """per_class_theta is indexed by class id: an absent class id must not
    shift later classes' entries down a slot."""

    def test_absent_class_id_keeps_alignment(self):
        labels = np.array([0] * 10 + [2] * 20)  # class 1 never occurs
        suggestion = suggest_min_support(labels, ig0=0.05)
        assert len(suggestion.per_class_theta) == 3
        assert suggestion.per_class_theta[1] == 1.0  # unconstrained slot
        # Classes 0 and 2 land at their own ids: same priors as a dataset
        # where the ids are contiguous.
        contiguous = suggest_min_support(
            np.array([0] * 10 + [1] * 20), ig0=0.05
        )
        assert suggestion.per_class_theta[0] == contiguous.per_class_theta[0]
        assert suggestion.per_class_theta[2] == contiguous.per_class_theta[1]
        assert suggestion.theta == contiguous.theta

    def test_absent_class_never_drives_minimum(self):
        labels = np.array([0] * 50 + [3] * 50)
        suggestion = suggest_min_support(labels, ig0=0.1)
        # theta_star(ig0, p=0) would be ~0 and collapse the suggestion.
        assert suggestion.theta > 0.0
        assert suggestion.theta == min(
            suggestion.per_class_theta[0], suggestion.per_class_theta[3]
        )

    def test_ceil_guard_against_float_fuzz(self, monkeypatch):
        """theta * n one ulp above an integer must not round the absolute
        count up (3.0000000000000004 -> 3, not 4)."""
        from repro.selection import minsup as minsup_module

        fuzzed_theta = 0.30000000000000004  # 0.3 + 1 ulp
        monkeypatch.setattr(
            minsup_module, "theta_star", lambda ig0, p, mode: fuzzed_theta
        )
        labels = np.array([0] * 5 + [1] * 5)
        suggestion = suggest_min_support(labels, ig0=0.1)
        assert suggestion.theta * 10 > 3.0  # the fuzz is real
        assert suggestion.absolute == 3

    def test_absolute_at_least_one(self, monkeypatch):
        from repro.selection import minsup as minsup_module

        monkeypatch.setattr(
            minsup_module, "theta_star", lambda ig0, p, mode: 1e-12
        )
        suggestion = suggest_min_support(np.array([0, 1]), ig0=0.1)
        assert suggestion.absolute == 1


class TestSuggestMinSupportModes:
    def test_exact_mode_no_larger_theta(self):
        """Exact bound is tighter-or-equal on the low branch, so its theta*
        is no smaller than the paper-mode theta*."""
        labels = np.array([0] * 50 + [1] * 50)
        paper = suggest_min_support(labels, ig0=0.08, mode="paper")
        exact = suggest_min_support(labels, ig0=0.08, mode="exact")
        assert exact.theta >= paper.theta - 1e-9

    def test_skewed_priors_conservative(self):
        labels = np.array([0] * 95 + [1] * 5)
        suggestion = suggest_min_support(labels, ig0=0.05)
        # Conservative over classes: uses the smaller per-class theta*.
        assert suggestion.theta == min(suggestion.per_class_theta)
        assert suggestion.absolute >= 1
