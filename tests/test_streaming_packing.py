"""Differential suite: a window shard seals through the one shard packer.

``_WindowShard._bits`` packs a shard's canonical rows with
``core.bitset.pack_rows`` (the out-of-core writer's packer) and builds no
``TransactionDataset``.  The oracle is the path it replaced: a
``TransactionDataset`` over the same rows, which re-canonicalizes them,
and the dense per-class comparison ``label_bits`` once packed.  Every
sealed shard, every restored shard and ``window_dataset()`` must match
it word for word and field for field.

Rows enter a shard canonical and in range through two doors, ``append``
and a restored payload; ``TestRestoreChecks`` pins the second one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import pack_labels, pack_rows
from repro.datasets.transactions import TransactionDataset
from repro.runtime.cache import canonical_json
from repro.streaming.window import SlidingWindowCounts
from tests.oracles.dense_bits import bit_matrix

N_ITEMS = 9
PATTERNS = [(), (0,), (1, 2), (0, 3), (4, 5, 6), (8,)]


@st.composite
def streams(draw):
    """Ragged, empty, unsorted and duplicated rows over 1-3 classes.

    The rows come from a drawn seed, so a stream of several 256-row
    shards costs hypothesis one integer, not a thousand list draws.
    """
    n_classes = draw(st.integers(min_value=1, max_value=3))
    shard_rows = draw(st.sampled_from([1, 7, 64, 65, 256]))
    window_shards = draw(st.integers(min_value=1, max_value=3))
    n_events = draw(st.integers(min_value=0, max_value=3 * shard_rows + 5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    events = [
        (
            rng.integers(0, N_ITEMS, size=rng.integers(0, 8)).tolist(),
            int(rng.integers(0, n_classes)),
        )
        for _ in range(n_events)
    ]
    return n_classes, shard_rows, window_shards, events


def oracle_words(rows, labels, n_classes):
    """(item words, label words) of the replaced ``TransactionDataset`` path."""
    data = TransactionDataset(rows, labels, n_items=N_ITEMS, n_classes=n_classes)
    classes = np.arange(n_classes)
    dense = np.asarray(labels, dtype=np.int64)[np.newaxis, :] == classes[:, np.newaxis]
    label_words = bit_matrix(dense).words
    assert np.array_equal(data.label_bits().words, label_words)
    return data.item_bits().words, label_words


def assert_shard_matches_oracle(shard, raw_rows, n_classes):
    item_bits, label_words = shard._bits()
    item_words, oracle_labels = oracle_words(
        [items for items, _ in raw_rows], [label for _, label in raw_rows], n_classes
    )
    assert item_bits.n_bits == len(raw_rows)
    assert item_bits.words.dtype == np.dtype("<u8")
    assert np.array_equal(item_bits.words, item_words)
    assert label_words.dtype == np.dtype("<u8")
    assert np.array_equal(label_words, oracle_labels)


def assert_same_dataset(data, expected):
    assert data.transactions == expected.transactions
    assert data.labels.dtype == expected.labels.dtype
    assert np.array_equal(data.labels, expected.labels)
    assert (data.n_items, data.n_classes) == (expected.n_items, expected.n_classes)
    assert (data.catalog, data.name) == (expected.catalog, expected.name)
    assert np.array_equal(data.item_bits().words, expected.item_bits().words)
    assert np.array_equal(data.label_bits().words, expected.label_bits().words)


class TestSealedShardsEqualTheDatasetPath:
    @settings(max_examples=60, deadline=None)
    @given(case=streams())
    def test_every_sealed_and_restored_shard_packs_like_the_oracle(self, case):
        n_classes, shard_rows, window_shards, events = case
        window = SlidingWindowCounts(
            N_ITEMS, n_classes, shard_rows, window_shards, patterns=PATTERNS
        )
        replayed = SlidingWindowCounts(
            N_ITEMS, n_classes, shard_rows, window_shards, patterns=PATTERNS
        )
        for index, (items, label) in enumerate(events):
            sealed = window.append(items, label)
            if sealed is None:
                continue
            raw = events[index + 1 - shard_rows : index + 1]
            assert_shard_matches_oracle(window._shards[sealed], raw, n_classes)
            replayed.restore_shard(window.shard_payload(sealed))
            assert_shard_matches_oracle(replayed._shards[sealed], raw, n_classes)
            assert np.array_equal(replayed.counts(), window.counts())
        restored = SlidingWindowCounts.from_payload(window.to_payload())
        for shard in restored._live_shards():
            original = window._shards[shard.epoch]
            raw = list(zip(original.transactions, original.labels))
            assert_shard_matches_oracle(shard, raw, n_classes)

    @settings(max_examples=60, deadline=None)
    @given(case=streams())
    def test_window_dataset_equals_the_recanonicalizing_construction(self, case):
        n_classes, shard_rows, window_shards, events = case
        window = SlidingWindowCounts(N_ITEMS, n_classes, shard_rows, window_shards)
        for items, label in events:
            window.append(items, label)
        expected = TransactionDataset(
            window.window_transactions(),
            window.window_labels(),
            n_items=N_ITEMS,
            n_classes=n_classes,
            name="w",
        )
        assert_same_dataset(window.window_dataset(name="w"), expected)


class TestPackRows:
    def test_packs_the_writer_layout(self):
        item_words, label_words = pack_rows(
            [(0, 2), (), (1,)], [1, 0, 1], n_items=3, n_classes=2
        )
        assert item_words.tolist() == [[0b001], [0b100], [0b001]]
        assert label_words.tolist() == [[0b010], [0b101]]

    def test_raises_value_error_on_bad_rows(self):
        with pytest.raises(ValueError, match="items outside"):
            pack_rows([(3,)], [0], n_items=3, n_classes=2)
        with pytest.raises(ValueError, match="items outside"):
            pack_rows([(-1,)], [0], n_items=3, n_classes=2)
        with pytest.raises(ValueError, match="labels outside"):
            pack_rows([(0,)], [2], n_items=3, n_classes=2)
        with pytest.raises(ValueError, match="labels outside"):
            pack_labels([-1], 2)
        with pytest.raises(ValueError, match="align"):
            pack_rows([(0,), (1,)], [0], n_items=3, n_classes=2)

    def test_empty_shard(self):
        item_words, label_words = pack_rows([], [], n_items=3, n_classes=2)
        assert item_words.shape == (3, 0) and label_words.shape == (2, 0)


class TestRestoreChecks:
    ROWS = [((3, 1), 0), ((2, 2, 0), 1), ((), 1), ((8, 4, 8, 4), 0)]

    def test_unsorted_and_duplicated_rows_restore_to_the_canonical_shard(self):
        window = SlidingWindowCounts(N_ITEMS, 2, 4, 2, patterns=PATTERNS)
        for items, label in self.ROWS:
            window.append(items, label)
        record = {
            "epoch": 0,
            "transactions": [list(items) for items, _ in self.ROWS],
            "labels": [label for _, label in self.ROWS],
        }
        replayed = SlidingWindowCounts(N_ITEMS, 2, 4, 2, patterns=PATTERNS)
        replayed.restore_shard(record)
        shard = replayed._shards[0]
        assert shard.transactions == [(1, 3), (0, 2), (), (4, 8)]
        assert np.array_equal(replayed.counts(), window.counts())
        assert canonical_json(replayed.shard_payload(0)) == canonical_json(
            window.shard_payload(0)
        )
        assert canonical_json(replayed.to_payload()) == canonical_json(
            window.to_payload()
        )

    @pytest.mark.parametrize(
        "transactions, labels, match",
        [
            ([[0], [1], [N_ITEMS], [2]], [0, 1, 0, 1], "items outside"),
            ([[0], [-1], [1], [2]], [0, 1, 0, 1], "items outside"),
            ([[0], [1], [2], [3]], [0, 2, 0, 1], "outside"),
            ([[0], [1], [2], [3]], [0, 1, -1, 1], "outside"),
            ([[0], [1], [2], [3]], [0, 1, 0], "align"),
        ],
    )
    def test_bad_record_raises_at_restore_as_append_does(
        self, transactions, labels, match
    ):
        record = {"epoch": 0, "transactions": transactions, "labels": labels}
        replayed = SlidingWindowCounts(N_ITEMS, 2, 4, 2)
        with pytest.raises(ValueError, match=match):
            replayed.restore_shard(record)
        appended = SlidingWindowCounts(N_ITEMS, 2, 4, 2)
        if len(transactions) == len(labels):
            with pytest.raises(ValueError, match=match):
                for items, label in zip(transactions, labels):
                    appended.append(items, label)
        payload = SlidingWindowCounts(N_ITEMS, 2, 4, 2).to_payload()
        payload.update(seq=4, shards=[record])
        with pytest.raises(ValueError, match=match):
            SlidingWindowCounts.from_payload(payload)
