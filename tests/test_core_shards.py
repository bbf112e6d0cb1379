"""Shard layer tests: file format, zero-copy protocol, stitch equality.

The contract under test: sharding is a *representation* change only.
Round-tripping a dataset through mmap shard files — any shard size,
including ragged final shards and row counts that are not multiples of
64 — reconstructs exactly the transactions, labels, packed words and
support counts of the in-memory path, and workers open shards without
copying.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import BitMatrix, WORD_BITS
from repro.core.shards import (
    MANIFEST_NAME,
    ShardSet,
    ShardWriter,
    shard_dataset,
    stitch,
)
from repro.datasets.transactions import TransactionDataset

SHARD_EXAMPLES = 40


def _random_dataset(seed: int, n_rows: int, n_items: int, n_classes: int):
    rng = np.random.default_rng(seed)
    transactions = [
        tuple(
            sorted(
                set(
                    rng.choice(
                        n_items, size=rng.integers(0, n_items + 1), replace=False
                    ).tolist()
                )
            )
        )
        for _ in range(n_rows)
    ]
    labels = rng.integers(0, n_classes, n_rows)
    return TransactionDataset(
        transactions, labels, n_items=n_items, n_classes=n_classes
    )


def _assert_packs_rows(handle, data, start: int) -> None:
    """``handle``'s words are the packed rows ``start:start + n_rows``."""
    stop = start + handle.n_rows
    items = BitMatrix.vertical(data.transactions[start:stop], data.n_items)
    classes = BitMatrix.vertical(
        [(int(label),) for label in data.labels[start:stop]], data.n_classes
    )
    assert np.array_equal(handle.item_words(), items.words)
    assert np.array_equal(handle.label_words(), classes.words)


@st.composite
def sharded_datasets(draw):
    """A random dataset plus a shard size straddling its row count."""
    n_rows = draw(st.integers(min_value=1, max_value=200))
    n_items = draw(st.integers(min_value=1, max_value=10))
    n_classes = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    shard_rows = draw(st.integers(min_value=1, max_value=n_rows + 64))
    return _random_dataset(seed, n_rows, n_items, n_classes), shard_rows


class TestShardFormat:
    @pytest.mark.parametrize("shard_rows", [1, 7, 63, 64, 65, 100, 10_000])
    def test_round_trip(self, tmp_path, shard_rows):
        data = _random_dataset(3, 257, 9, 3)
        shards = shard_dataset(data, tmp_path, shard_rows)
        shards.verify()
        assert shards.n_rows == data.n_rows
        assert shards.class_totals().tolist() == data.class_counts().tolist()
        start = 0
        for handle in shards:
            _assert_packs_rows(handle, data, start)
            start += handle.n_rows
        assert start == data.n_rows

    def test_class_transactions_match_partition(self, tmp_path):
        data = _random_dataset(4, 120, 8, 3)
        shards = shard_dataset(data, tmp_path, 33)
        start = 0
        for handle in shards:
            labels = data.labels[start : start + handle.n_rows]
            for c in range(data.n_classes):
                # The (shard, class) cell the local mining pass searches.
                cell = [
                    t if label == c else ()
                    for t, label in zip(data.transactions[start:], labels)
                ]
                expected = BitMatrix.vertical(cell, data.n_items).words
                got = handle.item_words() & handle.label_words()[c]
                assert np.array_equal(got, expected)
            start += handle.n_rows
        assert start == data.n_rows

    def test_tail_bits_zero_on_mmap_words(self, tmp_path):
        # 130 rows / shards of 50: shard sizes 50, 50, 30 — none a
        # multiple of 64, so every shard has live tail bits to get wrong.
        data = _random_dataset(5, 130, 6, 2)
        shards = shard_dataset(data, tmp_path, 50)
        for handle in shards:
            tail = handle.n_rows % WORD_BITS
            assert tail != 0  # the point of this fixture
            keep = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
            for words in (handle.item_words(), handle.label_words()):
                assert (words[:, -1] & ~keep).max() == 0

    def test_manifest_reload(self, tmp_path):
        data = _random_dataset(6, 90, 5, 2)
        built = shard_dataset(data, tmp_path, 40)
        loaded = ShardSet.load(tmp_path)
        assert loaded.manifest == built.manifest
        assert loaded.content_digest() == built.content_digest()
        assert [h.sha256 for h in loaded] == [h.sha256 for h in built]

    def test_verify_detects_corruption(self, tmp_path):
        data = _random_dataset(7, 80, 5, 2)
        shards = shard_dataset(data, tmp_path, 30)
        victim = tmp_path / shards.manifest["shards"][1]["file"]
        raw = bytearray(victim.read_bytes())
        raw[0] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="content hash mismatch"):
            shards.verify()

    def test_reuse_skips_rewrite(self, tmp_path):
        data = _random_dataset(8, 70, 5, 2)
        first = shard_dataset(data, tmp_path, 30)
        stamp = {
            p.name: p.stat().st_mtime_ns for p in tmp_path.glob("shard-*.bin")
        }
        second = shard_dataset(data, tmp_path, 30)
        assert second.content_digest() == first.content_digest()
        assert {
            p.name: p.stat().st_mtime_ns for p in tmp_path.glob("shard-*.bin")
        } == stamp
        # A different shard size must rebuild, not reuse.
        rebuilt = shard_dataset(data, tmp_path, 31)
        assert int(rebuilt.manifest["shard_rows"]) == 31

    def test_writer_rejects_bad_inputs(self, tmp_path):
        with pytest.raises(ValueError):
            ShardWriter(tmp_path, n_items=5, n_classes=2, shard_rows=0)
        writer = ShardWriter(tmp_path, n_items=5, n_classes=2, shard_rows=10)
        with pytest.raises(ValueError, match="outside"):
            writer.append((0, 7), 0)
            writer.close()

    def test_empty_dataset_yields_no_shards(self, tmp_path):
        data = TransactionDataset([], [], n_items=4, n_classes=2)
        shards = shard_dataset(data, tmp_path, 10)
        assert len(shards) == 0 and shards.n_rows == 0
        assert (tmp_path / MANIFEST_NAME).exists()


class TestZeroCopyProtocol:
    def test_handle_is_small_and_picklable(self, tmp_path):
        data = _random_dataset(9, 5000, 12, 2)
        shards = shard_dataset(data, tmp_path, 2500)
        handle = shards.handles[0]
        blob = pickle.dumps(handle)
        # The handle must stay a constant-size reference: far below the
        # ~47kB one packed shard (12 items x 2500 rows) occupies, let
        # alone a pickled transaction list.
        assert len(blob) < 1024
        _assert_packs_rows(pickle.loads(blob), data, 0)

    def test_bitmatrix_wraps_memmap_without_copy(self, tmp_path):
        data = _random_dataset(10, 200, 8, 2)
        shards = shard_dataset(data, tmp_path, 80)
        handle = shards.handles[0]
        mm = handle.item_words()
        assert isinstance(mm, np.memmap)
        wrapped = BitMatrix(mm, handle.n_rows)
        assert np.shares_memory(wrapped.words, mm)


class TestStitchAndVertical:
    @settings(max_examples=SHARD_EXAMPLES, deadline=None)
    @given(case=sharded_datasets())
    def test_stitch_reconstructs_packed_words(self, tmp_path_factory, case):
        data, shard_rows = case
        tmp = tmp_path_factory.mktemp("stitch")
        vertical = stitch(shard_dataset(data, tmp, shard_rows))
        assert np.array_equal(
            vertical.item_bits().words, data.item_bits().words
        )
        assert np.array_equal(
            vertical.label_bits().words, data.label_bits().words
        )
        assert np.array_equal(vertical.labels, data.labels)

    def test_vertical_duck_type_parity(self, tmp_path):
        data = _random_dataset(11, 150, 9, 3)
        vertical = stitch(shard_dataset(data, tmp_path, 47))
        assert vertical.n_rows == data.n_rows
        assert vertical.n_items == data.n_items
        assert vertical.n_classes == data.n_classes
        assert vertical.class_counts().tolist() == data.class_counts().tolist()
        rng = np.random.default_rng(0)
        for _ in range(25):
            pattern = tuple(
                rng.choice(data.n_items, size=rng.integers(1, 4), replace=False)
            )
            assert vertical.support_count(pattern) == data.support_count(pattern)
            assert np.array_equal(vertical.covers(pattern), data.covers(pattern))
            assert vertical.class_support_counts(pattern).tolist() == (
                data.class_support_counts(pattern).tolist()
            )
        # Out-of-range patterns degrade identically (empty cover).
        assert vertical.support_count((999,)) == data.support_count((999,))
