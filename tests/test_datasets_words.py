"""Property suite: a TransactionDataset held as words equals its row form.

A dataset's state is its packed item and label words; its rows are a
view derived from them.  Every way of building one must agree with the
row form (``tests/oracles/transactions.py``): rows canonicalized one by
one, packed through a dense matrix, and digested row by row.  The
dataset's rows, labels, item and label words, class counts, support
queries and ``content_hash`` are compared, for:

* the constructor over raw rows (empty, unsorted, duplicated items);
* ``from_dataset`` over a categorical dataset;
* ``subset`` with unsorted and repeated indices;
* ``stitch`` of a shard set with ragged shard sizes;
* a stream window's ``window_dataset()``, live and restored from words.

``mine_class_patterns`` hands each class partition to its miner as the
item words compacted to that class's rows; they must equal the row-form
partition (``class_partition``) packed.

Drawn databases include an item space wider than the largest item, a
class with no rows, and the empty dataset.
"""

from __future__ import annotations

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shards import shard_dataset, stitch
from repro.datasets import Attribute, Dataset, TransactionDataset
from repro.mining import generation
from repro.mining.itemsets import MiningResult
from repro.streaming.window import SlidingWindowCounts
from tests.oracles.transactions import (
    canonical_rows,
    class_partition,
    row_content_hash,
    row_words,
)


@st.composite
def databases(draw):
    """``(raw rows, labels, n_items, n_classes, rng)``.

    Items come from ``[0, top)`` with ``top <= n_items``, and labels from
    ``[0, used)`` with ``used <= n_classes``: the classes above ``used``
    have no rows.
    """
    n_items = draw(st.integers(min_value=1, max_value=70))
    top = draw(st.integers(min_value=1, max_value=n_items))
    n_classes = draw(st.integers(min_value=1, max_value=4))
    used = draw(st.integers(min_value=1, max_value=n_classes))
    n_rows = draw(st.integers(min_value=0, max_value=140))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = [rng.integers(0, top, size=rng.integers(0, 9)).tolist() for _ in range(n_rows)]
    labels = rng.integers(0, used, size=n_rows).tolist()
    return rows, labels, n_items, n_classes, rng


def patterns(rng, n_items):
    """The empty pattern, one with an item past the space, and random ones."""
    drawn = [
        tuple(rng.integers(0, n_items, size=rng.integers(1, 4)).tolist())
        for _ in range(6)
    ]
    return [(), (0, n_items)] + drawn


def assert_matches_rows(data, raw, labels, n_items, n_classes, rng, name=None):
    rows = canonical_rows(raw, n_items)
    item_words, label_words = row_words(rows, labels, n_items, n_classes)
    assert data.transactions == rows
    assert all(type(i) is int for row in data.transactions for i in row)
    assert data.labels.dtype == np.int32
    assert data.labels.tolist() == list(labels)
    assert (data.n_rows, data.n_items, data.n_classes) == (len(rows), n_items, n_classes)
    assert np.array_equal(data.item_bits().words, item_words)
    assert np.array_equal(data.label_bits().words, label_words)
    assert data.class_counts().tolist() == np.bincount(
        np.asarray(labels, dtype=np.int64), minlength=n_classes
    ).tolist()
    for pattern in patterns(rng, n_items):
        wanted = set(pattern)
        covered = np.array([wanted <= set(row) for row in rows], dtype=bool)
        assert np.array_equal(data.covers(pattern), covered)
        assert data.support_count(pattern) == int(covered.sum())
        per_class = np.bincount(
            np.asarray(labels, dtype=np.int64)[covered], minlength=n_classes
        )
        assert data.class_support_counts(pattern).tolist() == per_class.tolist()
    assert data.content_hash() == row_content_hash(rows, labels, n_items, n_classes)
    if name is not None:
        assert data.name == name


class TestConstruction:
    @settings(max_examples=120, deadline=None)
    @given(case=databases())
    def test_constructor_equals_the_row_form(self, case):
        raw, labels, n_items, n_classes, rng = case
        data = TransactionDataset(raw, labels, n_items, n_classes, name="d")
        assert_matches_rows(data, raw, labels, n_items, n_classes, rng, "d")

    @settings(max_examples=60, deadline=None)
    @given(
        arity=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6),
        n_rows=st.integers(min_value=0, max_value=140),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_from_dataset_equals_the_row_form(self, arity, n_rows, seed):
        rng = np.random.default_rng(seed)
        values = np.column_stack(
            [rng.integers(0, a, n_rows) for a in arity]
        ).reshape(n_rows, len(arity))
        labels = rng.integers(0, 2, n_rows).tolist()
        attributes = [
            Attribute(f"a{j}", tuple(f"v{v}" for v in range(a)))
            for j, a in enumerate(arity)
        ]
        dataset = Dataset("cat", attributes, values, labels, class_names=("x", "y", "z"))
        offsets = np.cumsum([0] + arity[:-1])
        raw = [[int(offsets[j] + v) for j, v in enumerate(row)] for row in values]
        data = TransactionDataset.from_dataset(dataset)
        assert_matches_rows(data, raw, labels, sum(arity), 3, rng, "cat")

    @pytest.mark.parametrize("row", [(-1,), (0, 5), (2, 7, 1)])
    def test_items_outside_the_space_raise(self, row):
        with pytest.raises(ValueError, match=r"items outside \[0, 5\)"):
            TransactionDataset([(0,), row], [0, 1], n_items=5)


class TestDerivedDatasets:
    @settings(max_examples=80, deadline=None)
    @given(case=databases(), data=st.data())
    def test_subset_takes_rows_in_index_order(self, case, data):
        raw, labels, n_items, n_classes, rng = case
        dataset = TransactionDataset(raw, labels, n_items, n_classes, name="s")
        indices = data.draw(
            st.lists(st.integers(0, len(raw) - 1), max_size=50) if raw else st.just([])
        )
        assert_matches_rows(
            dataset.subset(indices),
            [raw[i] for i in indices],
            [labels[i] for i in indices],
            n_items,
            n_classes,
            rng,
            "s",
        )

    @settings(max_examples=40, deadline=None)
    @given(case=databases(), shard_rows=st.integers(min_value=1, max_value=130))
    def test_stitch_over_ragged_shards(self, case, shard_rows):
        raw, labels, n_items, n_classes, rng = case
        dataset = TransactionDataset(raw, labels, n_items, n_classes, name="t")
        with tempfile.TemporaryDirectory() as out:
            stitched = stitch(shard_dataset(dataset, out, shard_rows))
        assert_matches_rows(stitched, raw, labels, n_items, n_classes, rng, "t")

    @settings(max_examples=60, deadline=None)
    @given(
        case=databases(),
        shard_rows=st.sampled_from([1, 7, 63, 64, 65, 130]),
        window_shards=st.integers(min_value=1, max_value=3),
    )
    def test_window_dataset_live_and_restored(self, case, shard_rows, window_shards):
        raw, labels, n_items, n_classes, rng = case
        window = SlidingWindowCounts(n_items, n_classes, shard_rows, window_shards)
        for items, label in zip(raw, labels):
            window.append(items, label)
        live = len(raw) - window.window_rows
        restored = SlidingWindowCounts.from_payload(window.to_payload())
        for source in (window, restored):
            assert_matches_rows(
                source.window_dataset(name="w"),
                raw[live:],
                labels[live:],
                n_items,
                n_classes,
                rng,
                "w",
            )


class TestClassPartitionWords:
    @settings(max_examples=80, deadline=None)
    @given(case=databases(), min_support=st.floats(min_value=0.01, max_value=1.0))
    def test_each_miner_gets_its_class_rows_packed(self, case, min_support):
        raw, labels, n_items, n_classes, _ = case
        data = TransactionDataset(raw, labels, n_items, n_classes)
        seen = []

        def miner(item_bits, min_support, **_):
            seen.append((item_bits, min_support))
            return MiningResult([], min_support, item_bits.n_bits)

        with mock.patch.dict(generation._MINERS, {"closed": miner}):
            generation.mine_class_patterns(data, min_support)
        partitions = [rows for _, rows in sorted(class_partition(data).items()) if rows]
        assert len(seen) == len(partitions)
        for (item_bits, absolute), rows in zip(seen, partitions):
            item_words, _ = row_words(rows, [0] * len(rows), n_items, 1)
            assert item_bits.n_bits == len(rows)
            assert np.array_equal(item_bits.words, item_words)
            assert absolute == max(1, int(-(-min_support * len(rows) // 1)))
