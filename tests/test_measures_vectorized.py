"""Differential suite: vectorized scoring kernels vs their scalar oracles.

The scalar :class:`PatternStats` path is the reference implementation; the
vectorized kernels of :mod:`repro.measures.vectorized` must agree with it
to 1e-12 **everywhere**, including the degenerate corners — empty tables,
support 0, support n, single-class data, ``p ∈ {0, 1}`` priors — where both
paths rely on explicit conventions (``0 log 0 = 0``, Fisher poles → inf)
rather than plain arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import TransactionDataset
from repro.measures import (
    ContingencyTables,
    PatternStats,
    batch_contingency_tables,
    batch_pattern_stats,
    chi2_batch,
    fisher_score_batch,
    fisher_upper_bound_batch,
    ig_upper_bound_batch,
    information_gain_batch,
)
from repro.measures.bounds import fisher_upper_bound, ig_upper_bound
from repro.measures.fisher import fisher_score
from repro.measures.information_gain import information_gain
from repro.mining import Pattern, mine_class_patterns
from repro.selection.relevance import (
    ChiSquareRelevance,
    FisherScoreRelevance,
    batch_relevance,
)

TOLERANCE = 1e-12


def assert_rows_match(vector: np.ndarray, scalars: list[float]) -> None:
    """Row-by-row scalar/vector agreement, treating inf == inf as equal."""
    assert vector.shape == (len(scalars),)
    for got, want in zip(vector, scalars):
        if np.isinf(want):
            assert np.isinf(got) and got == want
        else:
            assert abs(got - want) <= TOLERANCE * max(1.0, abs(want))


# ----------------------------------------------------------------------
# Contingency-table generation: random counts with degenerate rows mixed in.


@st.composite
def contingency_tables(draw) -> ContingencyTables:
    n_classes = draw(st.integers(1, 4))
    class_totals = draw(
        st.lists(
            st.integers(0, 30), min_size=n_classes, max_size=n_classes
        ).filter(lambda t: sum(t) > 0)
    )
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 30), min_size=n_classes, max_size=n_classes),
            min_size=0,
            max_size=8,
        )
    )
    # Clip each row into the simplex [0, class_totals] and append the
    # degenerate corners explicitly: support 0, support n, single class.
    totals = np.array(class_totals, dtype=np.int64)
    present_rows = [np.minimum(np.array(r, dtype=np.int64), totals) for r in rows]
    present_rows.append(np.zeros(n_classes, dtype=np.int64))  # support 0
    present_rows.append(totals.copy())  # support n
    pure = np.zeros(n_classes, dtype=np.int64)  # class-pure coverage
    pure[0] = totals[0]
    present_rows.append(pure)
    present = np.stack(present_rows)
    return ContingencyTables(present=present, absent=totals[np.newaxis, :] - present)


class TestMeasureKernels:
    @given(tables=contingency_tables())
    @settings(max_examples=150, deadline=None)
    def test_information_gain_matches_scalar(self, tables):
        batch = information_gain_batch(tables.present, tables.absent)
        assert_rows_match(batch, [information_gain(s) for s in tables.to_stats()])

    @given(tables=contingency_tables())
    @settings(max_examples=150, deadline=None)
    def test_fisher_score_matches_scalar(self, tables):
        batch = fisher_score_batch(tables.present, tables.absent)
        assert_rows_match(batch, [fisher_score(s) for s in tables.to_stats()])

    @given(tables=contingency_tables())
    @settings(max_examples=150, deadline=None)
    def test_chi2_matches_scalar(self, tables):
        scalar = ChiSquareRelevance()
        batch = chi2_batch(tables.present, tables.absent)
        assert_rows_match(batch, [scalar(s) for s in tables.to_stats()])

    def test_empty_batch(self):
        empty = np.zeros((0, 3), dtype=np.int64)
        for kernel in (information_gain_batch, fisher_score_batch, chi2_batch):
            assert kernel(empty, empty).shape == (0,)

    def test_single_class_data_scores_zero(self):
        """With one class there is nothing to discriminate: IG and chi²
        are 0 and Fisher has no between-class scatter."""
        present = np.array([[5], [0], [10]], dtype=np.int64)
        absent = np.array([[5], [10], [0]], dtype=np.int64)
        assert (information_gain_batch(present, absent) == 0).all()
        assert (fisher_score_batch(present, absent) == 0).all()
        assert (chi2_batch(present, absent) == 0).all()

    def test_perfect_alignment_is_infinite_fisher(self):
        present = np.array([[10, 0]], dtype=np.int64)
        absent = np.array([[0, 10]], dtype=np.int64)
        assert np.isinf(fisher_score_batch(present, absent))[0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            information_gain_batch(np.zeros((2, 2)), np.zeros((3, 2)))


class TestBoundKernels:
    @given(
        thetas=st.lists(
            st.floats(1e-6, 1.0, exclude_min=False), min_size=1, max_size=20
        ),
        p=st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, 1.0, 0.5, 1.0 - 1e-9]),
        ),
        mode=st.sampled_from(["paper", "exact"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_ig_upper_bound_matches_scalar(self, thetas, p, mode):
        batch = ig_upper_bound_batch(np.array(thetas), p, mode=mode)
        assert_rows_match(
            batch, [ig_upper_bound(t, p, mode=mode) for t in thetas]
        )

    @given(
        thetas=st.lists(
            st.floats(1e-6, 1.0, exclude_min=False), min_size=1, max_size=20
        ),
        p=st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, 1.0, 0.5]),
        ),
        mode=st.sampled_from(["paper", "exact"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_fisher_upper_bound_matches_scalar(self, thetas, p, mode):
        batch = fisher_upper_bound_batch(np.array(thetas), p, mode=mode)
        assert_rows_match(
            batch, [fisher_upper_bound(t, p, mode=mode) for t in thetas]
        )

    def test_fisher_pole_at_theta_equals_p(self):
        batch = fisher_upper_bound_batch(np.array([0.25, 0.3, 0.35]), 0.3)
        assert np.isinf(batch[1])
        assert np.isfinite(batch[0]) and np.isfinite(batch[2])

    def test_degenerate_priors_are_zero(self):
        thetas = np.linspace(0.05, 1.0, 7)
        for p in (0.0, 1.0):
            assert (fisher_upper_bound_batch(thetas, p) == 0).all()
            assert (ig_upper_bound_batch(thetas, p) == 0).all()

    def test_invalid_theta_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            ig_upper_bound_batch(np.array([0.0, 0.5]), 0.5)
        with pytest.raises(ValueError, match="theta"):
            fisher_upper_bound_batch(np.array([1.5]), 0.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ig_upper_bound_batch(np.array([0.5]), 0.5, mode="loose")
        with pytest.raises(ValueError, match="mode"):
            fisher_upper_bound_batch(np.array([0.5]), 0.5, mode="loose")

    def test_empty_grid(self):
        assert ig_upper_bound_batch(np.array([]), 0.5).shape == (0,)
        assert fisher_upper_bound_batch(np.array([]), 0.5).shape == (0,)


class TestFisherRelevanceCapping:
    """FisherScoreRelevance must cap identically in both evaluation forms."""

    def test_cap_applies_in_both_paths(self):
        tables = ContingencyTables(
            present=np.array([[10, 0], [5, 5], [0, 10]], dtype=np.int64),
            absent=np.array([[0, 10], [5, 5], [10, 0]], dtype=np.int64),
        )
        measure = FisherScoreRelevance(cap=42.0)
        batch = measure.batch(tables)
        scalars = [measure(s) for s in tables.to_stats()]
        assert batch[0] == scalars[0] == 42.0  # inf capped
        assert batch[2] == scalars[2] == 42.0
        np.testing.assert_allclose(batch, scalars, rtol=0, atol=TOLERANCE)

    @given(tables=contingency_tables(), cap=st.floats(0.1, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_capping_parity_property(self, tables, cap):
        measure = FisherScoreRelevance(cap=cap)
        assert_rows_match(
            np.asarray(measure.batch(tables), dtype=float),
            [measure(s) for s in tables.to_stats()],
        )


class TestBatchRelevanceFallback:
    def test_scalar_only_callable_falls_back(self):
        tables = ContingencyTables(
            present=np.array([[3, 1], [0, 4]], dtype=np.int64),
            absent=np.array([[1, 3], [4, 0]], dtype=np.int64),
        )
        scores = batch_relevance(lambda stats: float(stats.support), tables)
        np.testing.assert_array_equal(scores, [4.0, 4.0])

    def test_bad_batch_shape_rejected(self):
        tables = ContingencyTables(
            present=np.array([[3, 1]], dtype=np.int64),
            absent=np.array([[1, 3]], dtype=np.int64),
        )

        class Broken:
            def __call__(self, stats):
                return 0.0

            def batch(self, tables):
                return np.zeros((2, 2))

        with pytest.raises(ValueError, match="scores"):
            batch_relevance(Broken(), tables)


class TestBatchContingencyTables:
    """The array-building path must agree with ``batch_pattern_stats``."""

    def test_matches_scalar_stats(self, planted_transactions):
        mined = mine_class_patterns(planted_transactions, min_support=0.2)
        tables = batch_contingency_tables(mined.patterns, planted_transactions)
        stats = batch_pattern_stats(mined.patterns, planted_transactions)
        assert tables.to_stats() == stats
        assert len(tables) == len(stats)
        np.testing.assert_array_equal(
            tables.supports, [s.support for s in stats]
        )
        np.testing.assert_array_equal(
            tables.majority_classes(),
            [int(np.argmax(s.present)) for s in stats],
        )

    def test_empty_patterns(self, tiny_transactions):
        tables = batch_contingency_tables([], tiny_transactions)
        assert len(tables) == 0
        assert tables.n_classes == tiny_transactions.n_classes

    def test_chunking_boundary(self, rng, monkeypatch):
        """More patterns than one cover block: rows must land in order."""
        from repro.core import bitset

        # 16 one-word covers per block, so the batch spans many blocks.
        monkeypatch.setattr(bitset, "_COVER_BLOCK_BYTES", 16 * 8)
        n_items = 6
        transactions = [
            tuple(int(i) for i in np.where(rng.random(n_items) < 0.5)[0])
            for _ in range(50)
        ]
        labels = [int(v) for v in rng.integers(0, 2, size=50)]
        data = TransactionDataset(transactions, labels, n_items=n_items)
        patterns = [
            Pattern(items=(int(i) % n_items,), support=0)
            for i in range(16 * 4 + 5)
        ]
        tables = batch_contingency_tables(patterns, data)
        stats = batch_pattern_stats(patterns, data)
        assert tables.to_stats() == stats

    def test_row_stats_roundtrip(self):
        tables = ContingencyTables(
            present=np.array([[2, 3]], dtype=np.int64),
            absent=np.array([[4, 1]], dtype=np.int64),
        )
        stats = tables.row_stats(0)
        assert stats == PatternStats(present=(2, 3), absent=(4, 1))
        assert stats.support == 5
