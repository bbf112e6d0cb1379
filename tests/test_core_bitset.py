"""Property tests for the packed-bitset engine against dense numpy.

Every kernel — pack/unpack, popcount, intersection, Jaccard redundancy —
is checked against its ``dtype=bool`` equivalent on random masks,
including widths that are not multiples of 64 and the all-zero / all-one
edge rows (appended to every generated matrix so each example exercises
them).
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitset
from repro.core.bitset import (
    WORD_BITS,
    BitMatrix,
    class_counts,
    intersection_counts,
    pack_bits,
    packed_ones,
    pattern_covers,
    popcount,
    scatter_bits,
    unpack_bits,
    word_count,
)
from repro.mining.closed import closed_fpgrowth, occurrence_matrix
from repro.selection.redundancy import batch_redundancy_packed
from tests.oracles.mmrfs_dense import batch_redundancy

#: Widths straddling the word size: 1 word exactly, off-by-one both ways,
#: multiple words, and a sub-byte width.
EDGE_WIDTHS = [1, 5, 63, 64, 65, 127, 128, 200]


@st.composite
def bool_matrices(draw):
    """Random boolean matrices with all-zero and all-one rows appended."""
    n_bits = draw(st.integers(min_value=1, max_value=200))
    n_rows = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.random((n_rows, n_bits)) < draw(
        st.floats(min_value=0.0, max_value=1.0)
    )
    edges = np.vstack(
        [np.zeros((1, n_bits), dtype=bool), np.ones((1, n_bits), dtype=bool)]
    )
    return np.vstack([dense, edges])


class TestPackUnpack:
    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices())
    def test_roundtrip(self, dense):
        packed = pack_bits(dense)
        assert packed.shape == (dense.shape[0], word_count(dense.shape[1]))
        assert np.array_equal(unpack_bits(packed, dense.shape[1]), dense)

    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices())
    def test_tail_bits_are_zero(self, dense):
        """The packed invariant: bits past n_bits in the last word are 0."""
        packed = pack_bits(dense)
        full = unpack_bits(packed, packed.shape[1] * WORD_BITS)
        assert not full[:, dense.shape[1]:].any()

    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_word_boundaries(self, width, rng):
        dense = rng.random((3, width)) < 0.5
        assert np.array_equal(unpack_bits(pack_bits(dense), width), dense)

    def test_one_dimensional_mask(self, rng):
        mask = rng.random(70) < 0.5
        packed = pack_bits(mask)
        assert packed.shape == (2,)
        assert np.array_equal(unpack_bits(packed, 70), mask)

    def test_zero_width(self):
        packed = pack_bits(np.zeros((2, 0), dtype=bool))
        assert packed.shape == (2, 0)
        assert np.array_equal(popcount(packed), np.zeros(2, dtype=np.int64))


class TestPopcount:
    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices())
    def test_matches_dense_sum(self, dense):
        assert np.array_equal(
            popcount(pack_bits(dense)), dense.sum(axis=1).astype(np.int64)
        )

    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_all_ones_row(self, width):
        ones = np.ones((1, width), dtype=bool)
        assert popcount(pack_bits(ones))[0] == width
        assert int(popcount(packed_ones(width))) == width

    def test_scalar_for_single_mask(self, rng):
        mask = rng.random(100) < 0.3
        assert int(popcount(pack_bits(mask))) == int(mask.sum())


class TestIntersection:
    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices())
    def test_and_matches_dense(self, dense):
        packed = pack_bits(dense)
        reference = dense[0]
        joint = packed & packed[0]
        assert np.array_equal(
            unpack_bits(joint, dense.shape[1]), dense & reference
        )

    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices(), block_rows=st.sampled_from([None, 1, 2]))
    def test_intersection_counts_match_dense(self, dense, block_rows):
        """Also with row blocks of 1-2 masks, so the blocked loop runs."""
        packed = pack_bits(dense)
        expected = (dense & dense[-1]).sum(axis=1)
        budget = (
            bitset._INTERSECTION_BLOCK_BYTES
            if block_rows is None
            else block_rows * packed.shape[1] * 8
        )
        with mock.patch.object(bitset, "_INTERSECTION_BLOCK_BYTES", budget):
            counts = intersection_counts(packed, packed[-1])
        assert np.array_equal(counts, expected)

    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices())
    def test_and_reduce_matches_dense_all(self, dense):
        matrix = BitMatrix.from_dense(dense)
        indices = list(range(dense.shape[0]))
        assert np.array_equal(
            unpack_bits(matrix.and_reduce(indices), matrix.n_bits),
            dense.all(axis=0),
        )

    def test_and_reduce_empty_is_all_ones(self):
        matrix = BitMatrix.from_dense(np.zeros((3, 70), dtype=bool))
        assert np.array_equal(
            unpack_bits(matrix.and_reduce([]), 70), np.ones(70, dtype=bool)
        )
        assert matrix.support([]) == 70


class TestJaccardKernel:
    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_packed_redundancy_matches_dense(self, dense, seed):
        """The packed Jaccard-redundancy kernel is bit-for-bit the dense one."""
        rng = np.random.default_rng(seed)
        supports = dense.sum(axis=1).astype(np.int64)
        relevances = rng.random(dense.shape[0])
        packed = pack_bits(dense)
        for reference in range(dense.shape[0]):
            dense_result = batch_redundancy(
                dense,
                supports,
                relevances,
                dense[reference],
                int(supports[reference]),
                float(relevances[reference]),
            )
            packed_result = batch_redundancy_packed(
                packed,
                supports,
                relevances,
                packed[reference],
                int(supports[reference]),
                float(relevances[reference]),
            )
            assert np.array_equal(dense_result, packed_result)


class TestBitMatrix:
    def test_vertical_is_transposed_occurrence_matrix(self, tiny_transactions):
        dense = occurrence_matrix(
            tiny_transactions.transactions, n_items=tiny_transactions.n_items
        )
        vertical = BitMatrix.vertical(
            tiny_transactions.transactions, tiny_transactions.n_items
        )
        assert np.array_equal(vertical.to_dense(), dense.T)
        assert np.array_equal(vertical.popcounts(), dense.sum(axis=0))

    def test_dataset_cache_is_reused(self, tiny_transactions):
        assert tiny_transactions.item_bits() is tiny_transactions.item_bits()
        assert tiny_transactions.label_bits() is tiny_transactions.label_bits()

    def test_covers_matches_naive_subset_check(self, planted_transactions):
        data = planted_transactions
        pattern = data.transactions[0][:2]
        expected = np.fromiter(
            (set(pattern).issubset(t) for t in data.transactions),
            dtype=bool,
            count=data.n_rows,
        )
        assert np.array_equal(data.covers(pattern), expected)
        assert data.support_count(pattern) == int(expected.sum())

    def test_covers_out_of_range_items_is_empty(self, tiny_transactions):
        mask = tiny_transactions.covers((0, tiny_transactions.n_items + 5))
        assert not mask.any()
        assert tiny_transactions.support_count((tiny_transactions.n_items,)) == 0

    def test_rejects_mismatched_words(self):
        with pytest.raises(ValueError):
            BitMatrix(np.zeros((2, 3), dtype=np.uint64), n_bits=64)

    def test_class_support_counts_match_bincount(self, planted_transactions):
        data = planted_transactions
        pattern = data.transactions[0][:2]
        mask = data.covers(pattern)
        expected = np.bincount(data.labels[mask], minlength=data.n_classes)
        assert np.array_equal(data.class_support_counts(pattern), expected)


@st.composite
def transaction_databases(draw):
    n_items = draw(st.integers(min_value=1, max_value=12))
    n_rows = draw(st.integers(min_value=0, max_value=150))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return [
        sorted(
            rng.choice(
                n_items, size=rng.integers(0, n_items + 1), replace=False
            ).tolist()
        )
        for _ in range(n_rows)
    ], n_items


class TestScatterBits:
    def test_empty_is_noop(self):
        words = np.zeros((3, 2), dtype=np.uint64)
        scatter_bits(
            words,
            np.array([], dtype=np.intp),
            np.array([], dtype=np.intp),
        )
        assert words.sum() == 0

    def test_duplicates_are_idempotent(self):
        once = np.zeros((2, 2), dtype=np.uint64)
        scatter_bits(once, np.array([1, 0]), np.array([64, 3]))
        thrice = np.zeros((2, 2), dtype=np.uint64)
        scatter_bits(
            thrice,
            np.array([1, 0, 1, 0, 1, 0]),
            np.array([64, 3, 64, 3, 64, 3]),
        )
        assert np.array_equal(once, thrice)

    def test_same_word_bits_merge(self):
        words = np.zeros((1, 1), dtype=np.uint64)
        scatter_bits(words, np.zeros(3, dtype=np.intp), np.array([0, 1, 63]))
        assert words[0, 0] == (1 | 2 | (1 << 63))

    def test_non_contiguous_target(self):
        # Regression: flat-view scatter silently wrote into a copy when
        # the word array was a non-contiguous slice.
        backing = np.zeros((4, 6), dtype=np.uint64)
        view = backing[::2, :3]
        scatter_bits(view, np.array([0, 1]), np.array([5, 70]))
        assert backing[0, 0] == np.uint64(1) << np.uint64(5)
        assert backing[2, 1] == np.uint64(1) << np.uint64(6)


class TestVerticalPacking:
    @settings(max_examples=100, deadline=None)
    @given(db=transaction_databases())
    def test_matches_dense_pack(self, db):
        transactions, n_items = db
        vertical = BitMatrix.vertical(transactions, n_items)
        dense = np.zeros((n_items, len(transactions)), dtype=bool)
        for t, row in enumerate(transactions):
            dense[list(row), t] = True
        assert np.array_equal(vertical.words, pack_bits(dense))
        assert vertical.n_bits == len(transactions)

    def test_out_of_range_item_rejected(self):
        with pytest.raises(IndexError):
            BitMatrix.vertical([[0], [3]], n_items=3)
        with pytest.raises(IndexError):
            BitMatrix.vertical([[-1]], n_items=3)

    def test_no_dense_intermediate_allocation(self):
        # 10k rows x 2000 items of arity 2 — the wide-sparse shape the
        # spike hit hardest.  The old path allocated the dense bool
        # occurrence matrix (n_items * n_rows = 20 MB) before packing;
        # the scatter path peaks at O(total set bits) temporaries
        # (~64 bytes per set bit here, ~1.3 MB) plus the 2.5 MB packed
        # result.
        rng = np.random.default_rng(0)
        n_rows, n_items = 10_000, 2000
        transactions = [
            sorted(rng.choice(n_items, size=2, replace=False).tolist())
            for _ in range(n_rows)
        ]
        tracemalloc.start()
        BitMatrix.vertical(transactions, n_items)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        dense_bytes = n_rows * n_items
        assert peak < dense_bytes // 4


@st.composite
def cover_batches(draw):
    """Item masks, packed label masks and itemsets of mixed lengths.

    Row counts straddle the word size (0, 1, 63, 64, 65) or are random;
    itemsets include the empty one and repeat lengths so groups form.
    """
    n_rows = draw(st.sampled_from([0, 1, 63, 64, 65]) | st.integers(2, 200))
    n_items = draw(st.integers(min_value=1, max_value=10))
    n_classes = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    items = BitMatrix.from_dense(rng.random((n_items, n_rows)) < 0.6)
    labels = rng.integers(0, n_classes, size=n_rows)
    label_words = pack_bits(labels[np.newaxis, :] == np.arange(n_classes)[:, None])
    itemsets = draw(
        st.lists(
            st.lists(st.integers(0, n_items - 1), max_size=4).map(tuple),
            max_size=40,
        )
    )
    return items, label_words, itemsets


class TestPatternCoverKernel:
    """The grouped cover kernel against one ``and_reduce`` per itemset."""

    @staticmethod
    def _check(items, label_words, itemsets):
        seen = []
        for positions, covers in pattern_covers(items, itemsets):
            assert covers.shape == (len(positions), items.words.shape[1])
            for position, cover in zip(positions, covers):
                assert np.array_equal(cover, items.and_reduce(itemsets[position]))
            seen.extend(positions.tolist())
        assert sorted(seen) == list(range(len(itemsets)))
        expected = np.array(
            [popcount(label_words & items.and_reduce(s)) for s in itemsets],
            dtype=np.int64,
        ).reshape(len(itemsets), label_words.shape[0])
        assert np.array_equal(class_counts(items, label_words, itemsets), expected)

    @settings(max_examples=150, deadline=None)
    @given(batch=cover_batches())
    def test_matches_and_reduce(self, batch):
        self._check(*batch)

    @settings(max_examples=50, deadline=None)
    @given(batch=cover_batches())
    def test_more_itemsets_than_one_block(self, batch):
        with pytest.MonkeyPatch.context() as patch:
            # At most 3 covers of up to 4 words per block.
            patch.setattr(bitset, "_COVER_BLOCK_BYTES", 3 * 4 * 8)
            self._check(*batch)

    @pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65])
    def test_empty_itemset_covers_every_row(self, n_rows):
        items = BitMatrix.from_dense(np.zeros((2, n_rows), dtype=bool))
        blocks = list(pattern_covers(items, [(), ()]))
        assert len(blocks) == 1
        positions, covers = blocks[0]
        assert positions.tolist() == [0, 1]
        for cover in covers:
            # All ones, and the tail bits past n_rows stay zero.
            assert np.array_equal(cover, packed_ones(n_rows))
            assert int(popcount(cover)) == n_rows
        label_words = packed_ones(n_rows)[np.newaxis, :]
        assert class_counts(items, label_words, [()]).tolist() == [[n_rows]]

    def test_no_itemsets(self):
        items = BitMatrix.from_dense(np.ones((2, 10), dtype=bool))
        assert list(pattern_covers(items, [])) == []
        label_words = pack_bits(np.ones((2, 10), dtype=bool))
        assert class_counts(items, label_words, []).shape == (0, 2)

    @pytest.mark.parametrize("itemset", [(0, 3), (5,), (1, -1)])
    def test_out_of_range_item_raises(self, itemset):
        items = BitMatrix.from_dense(np.ones((3, 70), dtype=bool))
        if max(itemset) >= 3:
            with pytest.raises(IndexError):
                items.and_reduce(itemset)
        with pytest.raises(IndexError):
            list(pattern_covers(items, [(0,), itemset]))
        with pytest.raises(IndexError):
            class_counts(items, packed_ones(70)[np.newaxis, :], [itemset])


class TestTransientBuffersBounded:
    """Wide databases where an unblocked buffer would exceed 256 MB."""

    BOUND = 64 << 20

    def test_kernel_counts_without_a_k_by_words_buffer(self):
        rng = np.random.default_rng(1)
        n_rows, n_items, k = 1 << 20, 16, 2100
        items = BitMatrix(
            rng.integers(0, 2**63, (n_items, word_count(n_rows)), dtype=np.uint64),
            n_rows,
        )
        label_words = items.words[:2].copy()
        itemsets = [
            tuple(rng.choice(n_items, 2, replace=False).tolist()) for _ in range(k)
        ]
        assert k * word_count(n_rows) * 8 > 256 << 20
        tracemalloc.start()
        try:
            counts = class_counts(items, label_words, itemsets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.BOUND
        for j in (0, k - 1):
            cover = items.and_reduce(itemsets[j])
            assert counts[j].tolist() == popcount(label_words & cover).tolist()

    def test_closed_miner_blocks_its_closure_buffer(self):
        rng = np.random.default_rng(2)
        n_rows, n_items = 8256, 512
        dense = rng.random((n_rows, n_items)) < 0.05
        transactions = [tuple(np.flatnonzero(row).tolist()) for row in dense]
        del dense
        # Every item extends the root, and every item is free to join
        # each extension's closure.
        assert n_items * n_items * word_count(n_rows) * 8 > 256 << 20
        tracemalloc.start()
        try:
            result = closed_fpgrowth(transactions, 1, max_length=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.BOUND
        assert result.patterns
