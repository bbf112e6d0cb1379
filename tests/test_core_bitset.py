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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import bitset
from repro.core.bitset import (
    WORD_BITS,
    BitMatrix,
    CoverPlan,
    and_popcount,
    class_counts,
    pack_bits,
    packed_ones,
    pattern_covers,
    popcount,
    scatter_bits,
    unpack_bits,
    word_count,
)
from repro.datasets import TransactionDataset
from repro.mining import Pattern
from repro.mining.closed import closed_fpgrowth
from repro.selection import mmrfs
from repro.selection.redundancy import batch_redundancy_packed
from tests.oracles.dense_bits import bit_matrix
from tests.oracles.direct_dense import occurrence_matrix
from tests.oracles.itemset_miners import charm
from tests.oracles.mmrfs_dense import batch_redundancy
from tests.oracles.scoring import and_reduce

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
    @given(dense=bool_matrices(), fallback=st.booleans())
    def test_matches_dense_sum(self, dense, fallback):
        """Also through the byte-table fallback of numpy without
        ``bitwise_count``."""
        count = None if fallback else bitset._BITWISE_COUNT
        with mock.patch.object(bitset, "_BITWISE_COUNT", count):
            counts = popcount(pack_bits(dense))
        assert np.array_equal(counts, dense.sum(axis=1).astype(np.int64))

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
        """Also with blocks of 1-2 word rows, so the blocked loop runs."""
        stack = np.ascontiguousarray(pack_bits(dense).T)
        expected = (dense & dense[-1]).sum(axis=1)
        budget = (
            bitset._INTERSECTION_BLOCK_BYTES
            if block_rows is None
            else block_rows * stack.shape[1] * 8
        )
        with mock.patch.object(bitset, "_INTERSECTION_BLOCK_BYTES", budget):
            counts = and_popcount(stack, stack[:, -1:])
        assert np.array_equal(counts, expected)

    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices())
    def test_and_reduce_matches_dense_all(self, dense):
        matrix = bit_matrix(dense)
        indices = list(range(dense.shape[0]))
        assert np.array_equal(
            unpack_bits(and_reduce(matrix, indices), matrix.n_bits),
            dense.all(axis=0),
        )

    def test_and_reduce_empty_is_all_ones(self):
        matrix = bit_matrix(np.zeros((3, 70), dtype=bool))
        assert np.array_equal(
            unpack_bits(and_reduce(matrix, []), 70), np.ones(70, dtype=bool)
        )
        assert popcount(and_reduce(matrix, [])) == 70


class TestAndPopcount:
    """The word-major kernel against ``popcount(row_major & mask)``."""

    #: Block budgets: the default; 1 byte, less than any word row, so each
    #: block takes exactly one; and 24 bytes, three words.
    BUDGETS = st.sampled_from([None, 1, 24])

    @staticmethod
    def _run(a, b, budget=None, fallback=False):
        budget = bitset._INTERSECTION_BLOCK_BYTES if budget is None else budget
        with mock.patch.multiple(
            bitset,
            _INTERSECTION_BLOCK_BYTES=budget,
            _BITWISE_COUNT=None if fallback else bitset._BITWISE_COUNT,
        ):
            return and_popcount(a, b)

    @settings(max_examples=150, deadline=None)
    @given(
        dense=bool_matrices(),
        seed=st.integers(0, 2**32 - 1),
        budget=BUDGETS,
        fallback=st.booleans(),
    )
    def test_stack_against_one_mask(self, dense, seed, budget, fallback):
        rng = np.random.default_rng(seed)
        row_major = pack_bits(dense)
        mask = pack_bits(rng.random(dense.shape[1]) < 0.5)
        counts = self._run(
            np.ascontiguousarray(row_major.T), mask[:, np.newaxis], budget, fallback
        )
        assert counts.dtype == np.int64
        assert np.array_equal(counts, popcount(row_major & mask))

    @settings(max_examples=100, deadline=None)
    @given(
        nodes=bool_matrices(),
        items=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        budget=BUDGETS,
        fallback=st.booleans(),
    )
    def test_closed_step_broadcast(self, nodes, items, seed, budget, fallback):
        """The closed miner's step: every (node, item) pair at once."""
        rng = np.random.default_rng(seed)
        rows = pack_bits(nodes)
        words = pack_bits(rng.random((items, nodes.shape[1])) < 0.6)
        counts = self._run(
            np.ascontiguousarray(rows.T)[:, :, np.newaxis],
            np.ascontiguousarray(words.T)[:, np.newaxis, :],
            budget,
            fallback,
        )
        expected = popcount(rows[:, np.newaxis, :] & words[np.newaxis])
        assert counts.shape == (len(rows), items)
        assert np.array_equal(counts, expected)

    def test_non_contiguous_columns(self, rng):
        """MMRFS compacts its stack into the leading columns of a view."""
        row_major = pack_bits(rng.random((40, 200)) < 0.5)
        stack = np.ascontiguousarray(row_major.T)[:, 5:30]
        counts = self._run(stack, row_major[0][:, np.newaxis], budget=16)
        assert np.array_equal(counts, popcount(row_major[5:30] & row_major[0]))

    @pytest.mark.parametrize("budget", [None, 1])
    def test_zero_words_and_zero_columns(self, budget):
        no_words = self._run(
            np.zeros((0, 5), dtype=np.uint64), np.zeros((0, 1), dtype=np.uint64), budget
        )
        assert no_words.shape == (5,) and not no_words.any()
        no_columns = self._run(
            np.zeros((3, 0), dtype=np.uint64), np.ones((3, 1), dtype=np.uint64), budget
        )
        assert no_columns.shape == (0,) and no_columns.dtype == np.int64
        no_pairs = self._run(
            np.zeros((3, 4, 1), dtype=np.uint64),
            np.zeros((3, 1, 0), dtype=np.uint64),
            budget,
        )
        assert no_pairs.shape == (4, 0)

    def test_misaligned_stacks_raise(self):
        stack = np.zeros((3, 4), dtype=np.uint64)
        with pytest.raises(ValueError):
            and_popcount(stack, np.zeros(3, dtype=np.uint64))
        with pytest.raises(ValueError):
            and_popcount(stack, np.zeros((2, 1), dtype=np.uint64))

    @pytest.mark.parametrize("n_bits", [65472, 65536, 66000])
    @pytest.mark.parametrize("budget", [None, 16])
    def test_accumulator_boundary(self, n_bits, budget, rng):
        """Counts at and past the 16-bit accumulator's range: 65,472 bits
        (1,023 words) is the widest uint16 stack, 65,536 the first wider."""
        ones = packed_ones(n_bits)
        random = pack_bits(rng.random(n_bits) < 0.5)
        row_major = np.vstack([ones, random, np.zeros_like(ones)])
        stack = np.ascontiguousarray(row_major.T)
        for mask in (ones, random):
            counts = self._run(stack, mask[:, np.newaxis], budget)
            assert counts.tolist() == popcount(row_major & mask).tolist()
        assert self._run(stack, ones[:, np.newaxis], budget)[0] == n_bits


class TestJaccardKernel:
    @settings(max_examples=100, deadline=None)
    @given(dense=bool_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_packed_redundancy_matches_dense(self, dense, seed):
        """The packed Jaccard-redundancy kernel is bit-for-bit the dense one."""
        rng = np.random.default_rng(seed)
        supports = dense.sum(axis=1).astype(np.int64)
        relevances = rng.random(dense.shape[0])
        packed = pack_bits(dense)
        stack = np.ascontiguousarray(packed.T)
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
                stack,
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
    itemsets include the empty one and mix lengths in any order.
    """
    n_rows = draw(st.sampled_from([0, 1, 63, 64, 65]) | st.integers(2, 200))
    n_items = draw(st.integers(min_value=1, max_value=10))
    n_classes = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    items = bit_matrix(rng.random((n_items, n_rows)) < 0.6)
    labels = rng.integers(0, n_classes, size=n_rows)
    label_words = pack_bits(labels[np.newaxis, :] == np.arange(n_classes)[:, None])
    itemsets = draw(
        st.lists(
            st.lists(st.integers(0, n_items - 1), max_size=4).map(tuple),
            max_size=40,
        )
    )
    return items, label_words, itemsets


def _mixed_batch():
    """Thirty itemsets whose lengths fall, rise and repeat, with empty
    itemsets between them, over 130 rows (three words): no item is 0, so
    padding with item 0 would change covers, and a length-ordered kernel
    would emit them out of itemset order."""
    rng = np.random.default_rng(7)
    items = bit_matrix(rng.random((9, 130)) < 0.7)
    labels = rng.integers(0, 3, size=130)
    label_words = pack_bits(labels[np.newaxis, :] == np.arange(3)[:, np.newaxis])
    lengths = [4, 0, 1, 3, 0, 0, 2, 4, 1, 0] * 3
    itemsets = [
        tuple(sorted(rng.choice(np.arange(1, 9), size=n, replace=False).tolist()))
        for n in lengths
    ]
    return items, label_words, itemsets


MIXED_BATCH = _mixed_batch()


class TestPatternCoverKernel:
    """The padded cover kernel against one oracle ``and_reduce`` per itemset."""

    @staticmethod
    def _check(items, label_words, itemsets):
        end = 0
        for start, covers in pattern_covers(items, itemsets):
            # Blocks run in itemset order, each right after the last.
            assert start == end and len(covers) > 0
            assert covers.shape[1] == items.words.shape[1]
            for itemset, cover in zip(itemsets[start:], covers):
                assert np.array_equal(cover, and_reduce(items, itemset))
            end = start + len(covers)
        assert end == len(itemsets)
        expected = np.array(
            [popcount(label_words & and_reduce(items, s)) for s in itemsets],
            dtype=np.int64,
        ).reshape(len(itemsets), label_words.shape[0])
        assert np.array_equal(class_counts(items, label_words, itemsets), expected)

    @settings(max_examples=150, deadline=None)
    @given(batch=cover_batches())
    @example(batch=MIXED_BATCH)
    def test_matches_and_reduce(self, batch):
        self._check(*batch)

    @settings(max_examples=50, deadline=None)
    @given(batch=cover_batches())
    @example(batch=MIXED_BATCH)
    def test_more_itemsets_than_one_block(self, batch):
        with pytest.MonkeyPatch.context() as patch:
            # At most 3 covers of up to 4 words per block.
            patch.setattr(bitset, "_COVER_BLOCK_BYTES", 3 * 4 * 8)
            self._check(*batch)

    @pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65])
    def test_empty_itemset_covers_every_row(self, n_rows):
        items = bit_matrix(np.zeros((2, n_rows), dtype=bool))
        blocks = list(pattern_covers(items, [(), ()]))
        assert len(blocks) == 1
        start, covers = blocks[0]
        assert start == 0 and len(covers) == 2
        for cover in covers:
            # All ones, and the tail bits past n_rows stay zero.
            assert np.array_equal(cover, packed_ones(n_rows))
            assert int(popcount(cover)) == n_rows
        label_words = packed_ones(n_rows)[np.newaxis, :]
        assert class_counts(items, label_words, [()]).tolist() == [[n_rows]]

    def test_no_itemsets(self):
        items = bit_matrix(np.ones((2, 10), dtype=bool))
        assert list(pattern_covers(items, [])) == []
        label_words = pack_bits(np.ones((2, 10), dtype=bool))
        assert class_counts(items, label_words, []).shape == (0, 2)

    @staticmethod
    def _check_plan(items, itemsets):
        out = np.full(
            (len(itemsets), items.words.shape[1]), 0xA5, dtype=items.words.dtype
        )
        CoverPlan(itemsets, items.n_masks).covers_into(items, out)
        for itemset, cover in zip(itemsets, out):
            assert np.array_equal(cover, and_reduce(items, itemset))

    @settings(max_examples=150, deadline=None)
    @given(batch=cover_batches())
    @example(batch=MIXED_BATCH)
    def test_cover_plan_matches_and_reduce(self, batch):
        items, _, itemsets = batch
        self._check_plan(items, itemsets)

    @settings(max_examples=50, deadline=None)
    @given(batch=cover_batches())
    @example(batch=MIXED_BATCH)
    def test_cover_plan_over_many_blocks(self, batch):
        items, _, itemsets = batch
        with pytest.MonkeyPatch.context() as patch:
            # At most 3 padded rows of 4 items over 1 word per block.
            patch.setattr(bitset, "_COVER_BLOCK_BYTES", 3 * 4 * 8)
            self._check_plan(items, itemsets)

    @pytest.mark.parametrize("itemset", [(0, 3), (5,), (1, -1)])
    def test_out_of_range_item_raises(self, itemset):
        items = bit_matrix(np.ones((3, 70), dtype=bool))
        if max(itemset) >= 3:
            with pytest.raises(IndexError):
                and_reduce(items, itemset)
        with pytest.raises(IndexError):
            list(pattern_covers(items, [(0,), itemset]))
        with pytest.raises(IndexError):
            class_counts(items, packed_ones(70)[np.newaxis, :], [itemset])
        with pytest.raises(IndexError):
            CoverPlan([(0,), itemset], 3)


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
        pairs = [
            tuple(rng.choice(n_items, 2, replace=False).tolist()) for _ in range(k - 1)
        ]
        assert k * word_count(n_rows) * 8 > 256 << 20
        # The first itemset pads every gather row to its length: a block
        # sized without the padded width gathers 64 MB at length 16.
        for longest in (2, 16):
            itemsets = [tuple(range(longest))] + pairs
            tracemalloc.start()
            try:
                counts = class_counts(items, label_words, itemsets)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < self.BOUND
            for j in (0, k - 1):
                cover = and_reduce(items, itemsets[j])
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

    def test_closed_miner_bounds_its_frontier(self):
        rng = np.random.default_rng(3)
        n_rows, n_items = 8256, 512
        dense = rng.random((n_rows, n_items)) < 0.02
        # 16 planted groups of 6 items give frequent pairs and triples, so
        # the search descends below the first level.
        for group in range(16):
            rows = rng.choice(n_rows, 300, replace=False)
            dense[np.ix_(rows, 30 * group + np.arange(6))] |= rng.random((300, 6)) < 0.8
        transactions = [tuple(np.flatnonzero(row).tolist()) for row in dense]
        del dense
        # Expanding all of the root's children in one step would AND every
        # frequent item with every item: a buffer of over 256 MB.
        assert n_items * n_items * word_count(n_rows) * 8 > 256 << 20
        tracemalloc.start()
        try:
            result = closed_fpgrowth(transactions, 40, max_length=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.BOUND
        assert max(len(items) for items in result.itemsets) == 3
        expected = {
            p.items: p.support for p in charm(transactions, 40).patterns if len(p.items) <= 3
        }
        assert result.as_dict() == expected

    @staticmethod
    def _mmrfs_peak(n_rows, seed, k=2000):
        """MMRFS over ``k`` random 3-item patterns on ``n_rows`` rows:
        (the tracemalloc peak, the bytes of one stack, the selection)."""
        rng = np.random.default_rng(seed)
        n_items = 24
        dense = rng.random((n_rows, n_items)) < 0.3
        labels = (dense[:, 0] ^ (rng.random(n_rows) < 0.2)).astype(np.int64)
        data = TransactionDataset(
            [tuple(np.flatnonzero(row).tolist()) for row in dense],
            labels,
            n_items=n_items,
        )
        del dense
        data.item_bits(), data.label_bits()
        triples = [
            tuple(sorted(rng.choice(n_items, 3, replace=False).tolist()))
            for _ in range(k)
        ]
        patterns = [Pattern(items, data.support_count(items)) for items in triples]
        tracemalloc.start()
        try:
            result = mmrfs(patterns, data, max_selected=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, k * word_count(n_rows) * 8, result

    def test_mmrfs_refresh_over_a_wide_stack(self):
        peak, stack, result = self._mmrfs_peak(1 << 16, seed=5)
        # MMRFS holds the coverage and correct-cover stacks; a refresh that
        # ANDed the whole stack at once would add another stack and a
        # uint8 copy of it on top.
        assert stack > 8 << 20
        assert peak < 2 * stack + (8 << 20)
        assert len(result) == 10

    def test_mmrfs_scan_over_a_wide_database(self):
        peak, stack, result = self._mmrfs_peak(1 << 17, seed=6, k=1000)
        # Each epoch scan gathers correct-cover words for its chunk of 256
        # candidates or more: 4 MB at 2,048 words, twice over for the AND,
        # unless the gather is blocked.
        assert word_count(1 << 17) == 2048
        assert peak < 2 * stack + (4 << 20)
        assert len(result) == 10
