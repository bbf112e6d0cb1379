"""Property suite: sliding-window counts == batch counts over the live window.

The window-equivalence contract from the ISSUE: after any sequence of
appends (and the shard evictions they trigger), ``counts()`` must equal
the per-class supports computed batch over exactly the rows still in
the window — and because window totals are integer sums of per-shard
integer counts, any shard merge order produces identical results
(the order-invariance discipline ``repro.obs.metrics`` established).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.transactions import TransactionDataset
from repro.runtime.cache import canonical_json
from repro.streaming.window import SlidingWindowCounts

N_ITEMS = 8
N_CLASSES = 2

PATTERNS = [(0,), (1, 2), (0, 3), (4, 5, 6), (7,)]


def event_streams():
    row = st.tuples(
        st.lists(st.integers(min_value=0, max_value=N_ITEMS - 1), max_size=5),
        st.integers(min_value=0, max_value=N_CLASSES - 1),
    )
    return st.lists(row, max_size=60)


def window_params():
    return st.tuples(
        st.integers(min_value=1, max_value=7),  # shard_rows
        st.integers(min_value=1, max_value=4),  # window_shards
    )


def batch_counts(window: SlidingWindowCounts) -> np.ndarray:
    """Oracle: per-class supports over the live rows, computed batch."""
    data = window.window_dataset()
    return np.array(
        [data.class_support_counts(p) for p in window.patterns], dtype=np.int64
    ).reshape(len(window.patterns), window.n_classes)


class TestWindowEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(events=event_streams(), params=window_params())
    def test_counts_equal_batch_over_live_window(self, events, params):
        shard_rows, window_shards = params
        window = SlidingWindowCounts(
            N_ITEMS, N_CLASSES, shard_rows, window_shards, patterns=PATTERNS
        )
        for items, label in events:
            window.append(items, label)
        assert (window.counts() == batch_counts(window)).all()
        assert (
            window.class_totals()
            == np.bincount(window.window_labels(), minlength=N_CLASSES)
        ).all()

    @settings(max_examples=100, deadline=None)
    @given(events=event_streams(), params=window_params())
    def test_counts_checked_at_every_seal(self, events, params):
        shard_rows, window_shards = params
        window = SlidingWindowCounts(
            N_ITEMS, N_CLASSES, shard_rows, window_shards, patterns=PATTERNS
        )
        for items, label in events:
            if window.append(items, label) is not None:
                assert (window.counts() == batch_counts(window)).all()

    @settings(max_examples=100, deadline=None)
    @given(events=event_streams(), seed=st.integers(min_value=0, max_value=999))
    def test_shard_merge_is_order_invariant(self, events, seed):
        window = SlidingWindowCounts(N_ITEMS, N_CLASSES, 5, 3, patterns=PATTERNS)
        for items, label in events:
            window.append(items, label)
        shards = window._live_shards()
        per_shard = [s.pattern_counts(window.patterns).copy() for s in shards if s.n_rows]
        rng = random.Random(seed)
        rng.shuffle(per_shard)
        shuffled_total = np.zeros(
            (len(PATTERNS), N_CLASSES), dtype=np.int64
        )
        for block in per_shard:
            shuffled_total += block
        assert (shuffled_total == window.counts()).all()


class TestWindowMechanics:
    def test_seal_and_eviction_boundaries(self):
        window = SlidingWindowCounts(N_ITEMS, N_CLASSES, shard_rows=3, window_shards=2)
        sealed = []
        for i in range(10):
            epoch = window.append((i % N_ITEMS,), i % N_CLASSES)
            if epoch is not None:
                sealed.append((i, epoch))
        # Seals land on every shard_rows-th append, epochs count up densely.
        assert sealed == [(2, 0), (5, 1), (8, 2)]
        # window_shards=2 sealed shards + the open tail row stay live.
        assert window.window_rows == 7
        assert len(window.window_transactions()) == 7

    def test_track_recounts_against_new_patterns(self):
        window = SlidingWindowCounts(N_ITEMS, N_CLASSES, 4, 2, patterns=[(0,)])
        for i in range(9):
            window.append((0, 1) if i % 2 else (2,), i % 2)
        before = window.counts()
        assert before.shape == (1, N_CLASSES)
        window.track([(0, 1), (2,)])
        after = window.counts()
        assert after.shape == (2, N_CLASSES)
        assert (after == batch_counts(window)).all()

    def test_empty_pattern_counts_every_row(self):
        window = SlidingWindowCounts(N_ITEMS, N_CLASSES, 4, 2, patterns=[()])
        for i in range(6):
            window.append((i % N_ITEMS,), i % N_CLASSES)
        assert window.counts().sum() == window.window_rows

    def test_validates_inputs(self):
        window = SlidingWindowCounts(N_ITEMS, N_CLASSES, 4, 2)
        with pytest.raises(ValueError):
            window.append((N_ITEMS,), 0)
        with pytest.raises(ValueError):
            window.append((0,), N_CLASSES)
        with pytest.raises(ValueError):
            SlidingWindowCounts(N_ITEMS, N_CLASSES, shard_rows=0)
        with pytest.raises(ValueError):
            SlidingWindowCounts(N_ITEMS, N_CLASSES, window_shards=0)

    def test_window_dataset_matches_live_rows(self):
        window = SlidingWindowCounts(N_ITEMS, N_CLASSES, 3, 2)
        rows = [((i % N_ITEMS, (i + 1) % N_ITEMS), i % N_CLASSES) for i in range(11)]
        for items, label in rows:
            window.append(items, label)
        data = window.window_dataset()
        assert isinstance(data, TransactionDataset)
        # Live window = last 2 sealed shards (3 rows each) + open tail (2).
        expected = rows[3:]
        assert data.transactions == [
            tuple(sorted(set(items))) for items, _ in expected
        ]
        assert data.labels.tolist() == [label for _, label in expected]


class TestWindowPayload:
    @settings(max_examples=80, deadline=None)
    @given(events=event_streams(), params=window_params())
    def test_payload_round_trip_is_identical(self, events, params):
        shard_rows, window_shards = params
        window = SlidingWindowCounts(
            N_ITEMS, N_CLASSES, shard_rows, window_shards, patterns=PATTERNS
        )
        for items, label in events:
            window.append(items, label)
        payload = window.to_payload()
        restored = SlidingWindowCounts.from_payload(payload)
        # Bytewise state equality, and the restored ring keeps counting
        # identically when the stream continues.
        assert canonical_json(restored.to_payload()) == canonical_json(payload)
        assert (restored.counts() == window.counts()).all()
        for items, label in events[:7]:
            assert window.append(items, label) == restored.append(items, label)
        assert (restored.counts() == window.counts()).all()

    def test_rejects_unknown_payload_version(self):
        window = SlidingWindowCounts(N_ITEMS, N_CLASSES, 4, 2)
        payload = window.to_payload()
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            SlidingWindowCounts.from_payload(payload)

    @settings(max_examples=80, deadline=None)
    @given(events=event_streams(), params=window_params())
    def test_restored_shards_rebuild_the_appended_window(self, events, params):
        shard_rows, window_shards = params
        window = SlidingWindowCounts(
            N_ITEMS, N_CLASSES, shard_rows, window_shards, patterns=PATTERNS
        )
        replayed = SlidingWindowCounts(
            N_ITEMS, N_CLASSES, shard_rows, window_shards, patterns=PATTERNS
        )
        for items, label in events:
            sealed = window.append(items, label)
            if sealed is not None:
                replayed.restore_shard(window.shard_payload(sealed))
                assert canonical_json(replayed.to_payload()) == canonical_json(
                    window.to_payload()
                )
                assert (replayed.counts() == window.counts()).all()

    def test_restore_rejects_a_shard_out_of_sequence(self):
        window = SlidingWindowCounts(N_ITEMS, N_CLASSES, 2, 2)
        for items, label in [((0,), 0), ((1,), 1), ((2,), 0), ((3,), 1)]:
            window.append(items, label)
        replayed = SlidingWindowCounts(N_ITEMS, N_CLASSES, 2, 2)
        with pytest.raises(ValueError, match="does not seal"):
            replayed.restore_shard(window.shard_payload(1))
        half = {"epoch": 0, "transactions": [[0]], "labels": [0]}
        with pytest.raises(ValueError, match="does not seal"):
            replayed.restore_shard(half)
