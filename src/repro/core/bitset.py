"""Packed-bitset transaction engine: uint64 row masks + popcount kernels.

Every hot path of the pipeline — closedness filtering in the LCM-style
miner, MMRFS coverage/redundancy updates, contingency-table batching and
design-matrix construction — reduces to three primitive operations over
boolean row masks: intersection, cardinality (popcount) and Jaccard
overlap.  This module packs those masks 64 rows per machine word so each
primitive touches 1/8 of the bytes a ``dtype=bool`` array would, and the
bitwise AND replaces boolean fancy-indexing.

Layout: a mask of ``n`` bits is a little-endian ``uint64`` vector of
``ceil(n / 64)`` words; bit ``k`` lives in word ``k // 64`` at position
``k % 64``.  The dtype is explicitly ``'<u8'`` so packed buffers are
byte-identical across platforms.  Tail bits past ``n`` in the last word
are always zero — every kernel preserves that invariant, so popcounts
never see garbage bits.

:class:`BitMatrix` stacks masks row-wise.  The pipeline uses it in the
*vertical* orientation (one mask per item, bits indexed by transaction),
which makes pattern coverage an AND-reduction over item masks and support
a popcount — the classic vertical-format trick of Eclat/CHARM, applied
here to the paper's feature-construction stage as well.

Two stacks are counted again and again: MMRFS's candidate coverage (once
per accepted pattern) and the closed miner's frontier tidsets (once per
search step).  They are kept *word-major*, ``(n_words, n)``, word ``w`` of
every mask in one contiguous row, and :func:`and_popcount` counts them by
summing whole rows of per-word counts over the leading axis.
:func:`popcount` serves row-major masks.

One cover kernel serves every caller.  :class:`CoverPlan` lays a list of
itemsets out as one gather table in itemset order, each row padded to the
longest itemset by repeating its last item; a block of covers is then one
gather and one AND-reduce, whatever the mix of lengths.  The featurizer
writes the covers straight into its design rows
(:meth:`CoverPlan.covers_into`); :func:`pattern_covers` yields them in
order block by block, and :func:`class_counts` turns each block into
per-class counts.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..obs import core as _obs

__all__ = [
    "WORD_BITS",
    "BitMatrix",
    "word_count",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "and_popcount",
    "packed_ones",
    "scatter_bits",
    "pack_transactions",
    "pack_labels",
    "pack_rows",
    "CoverPlan",
    "pattern_covers",
    "class_counts",
    "SupportQueries",
]

WORD_BITS = 64
#: Explicit little-endian words: platform-independent packed layout.
_WORD_DTYPE = np.dtype("<u8")
#: Bits set in each possible byte value; fallback popcount is a table
#: gather + sum when the hardware popcount ufunc (numpy >= 2.0) is absent.
_POPCOUNT8 = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1
).sum(axis=1).astype(np.uint8)
_BITWISE_COUNT = getattr(np, "bitwise_count", None)
#: Byte budget of one block of the cover kernel's gather (:class:`CoverPlan`,
#: padded width included): bounds the transient ``(block, width, n_words)``
#: uint64 buffer of every batched cover and count, however many itemsets
#: the batch holds.
_COVER_BLOCK_BYTES = 4 << 20
#: Rows flattened per step of :func:`pack_transactions`: bounds its
#: transient id, row and bit arrays (about 40 bytes per id) on long
#: requests and databases.
_PACK_ROWS = 4096
#: ``1 << k`` for every bit position ``k`` of a word.
_BIT_VALUES = np.left_shift(np.uint64(1), np.arange(WORD_BITS, dtype=np.uint64))
#: Byte budget of the uint64 AND of one block of word rows in
#: :func:`and_popcount` (MMRFS's redundancy refresh, the closed miner's step).
_INTERSECTION_BLOCK_BYTES = 1 << 20


def word_count(n_bits: int) -> int:
    """Number of uint64 words needed to hold ``n_bits`` bits."""
    if n_bits < 0:
        raise ValueError("n_bits must be >= 0")
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def pack_bits(dense: np.ndarray) -> np.ndarray:
    """Pack a boolean array along its last axis into uint64 words.

    Shape ``(..., n_bits)`` becomes ``(..., word_count(n_bits))``; tail
    bits of the final word are zero.
    """
    dense = np.asarray(dense, dtype=bool)
    n_bits = dense.shape[-1]
    packed = np.packbits(dense, axis=-1, bitorder="little")
    pad = word_count(n_bits) * 8 - packed.shape[-1]
    if pad:
        width = [(0, 0)] * (packed.ndim - 1) + [(0, pad)]
        packed = np.pad(packed, width)
    return np.ascontiguousarray(packed).view(_WORD_DTYPE)


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: boolean array of shape ``(..., n_bits)``.

    Single-pass: ``count=`` makes unpackbits emit exactly ``n_bits``
    columns and the 0/1 uint8 result reinterprets as bool without a copy
    — the slice-then-astype alternative would traverse the (often large)
    dense output twice.
    """
    words = np.ascontiguousarray(words, dtype=_WORD_DTYPE)
    if words.shape[-1] == 0:
        return np.zeros(words.shape[:-1] + (n_bits,), dtype=bool)
    bits = np.unpackbits(
        words.view(np.uint8), axis=-1, count=n_bits, bitorder="little"
    )
    return bits.view(np.bool_)


def popcount(words: np.ndarray) -> np.ndarray:
    """Set-bit count of each mask: sums over the last (word) axis.

    A 1-D input (a single mask) yields a scalar; an ``(m, n_words)`` stack
    yields ``m`` counts.
    """
    words = np.ascontiguousarray(words, dtype=_WORD_DTYPE)
    session = _obs._ACTIVE
    if session is not None:
        # Kernel-invocation count and popcount volume (words scanned); the
        # disabled path above this line costs one global read + None test.
        session.add_many(
            (("bitset.popcount_calls", 1), ("bitset.popcount_words", int(words.size)))
        )
    if words.shape[-1] == 0:
        return np.zeros(words.shape[:-1], dtype=np.int64)
    return _word_counts(words).sum(axis=-1, dtype=np.int64)


def and_popcount(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_w popcount(a[w] & b[w])`` over the leading (word) axis.

    The counting kernel of the *word-major* stacks, shaped ``(n_words,
    ...)``: MMRFS's candidate coverage and the closed miner's frontier
    tidsets.  ``a`` and ``b`` have the same rank and number of words
    (``ValueError`` otherwise), and their trailing axes broadcast:
    ``and_popcount(stack, mask[:, None])`` counts every column of a stack
    against one mask, and ``and_popcount(rows[:, :, None], items[:, None,
    :])`` every (node, item) pair.  Returns int64 counts of the broadcast
    trailing shape.

    Summing over the leading axis adds whole rows of counts, which is
    cheap, where :func:`popcount`'s sum over a 20-40-word last axis is
    not.  The word rows are ANDed in blocks of at most
    ``_INTERSECTION_BLOCK_BYTES`` (at least one word row), through
    scratch buffers allocated once per call, and the counts accumulate in
    ``uint16`` when no count can reach 65,536 bits, in ``uint32``
    otherwise.
    """
    n_words = a.shape[0]
    if b.ndim != a.ndim or b.shape[0] != n_words:
        raise ValueError(
            f"word-major stacks of shapes {a.shape} and {b.shape} do not align"
        )
    if n_words == 0:
        return np.zeros(np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=np.int64)
    # The shape of one word row of the AND (cheaper than broadcast_shapes).
    row = np.broadcast(a[0], b[0])
    shape, size = row.shape, row.size
    session = _obs._ACTIVE
    if session is not None:
        session.add_many(
            (("bitset.intersection_calls", 1), ("bitset.popcount_words", n_words * size))
        )
    if size == 0:
        return np.zeros(shape, dtype=np.int64)
    total = np.uint16 if n_words * WORD_BITS < 1 << 16 else np.uint32
    block = max(1, _INTERSECTION_BLOCK_BYTES // (8 * size))
    if block >= n_words:
        return np.add.reduce(_word_counts(a & b), axis=0, dtype=total).astype(np.int64)
    joint = np.empty((block,) + shape, dtype=_WORD_DTYPE)
    counts = np.empty((block,) + shape, dtype=np.uint8)
    partial = np.empty(shape, dtype=total)
    result = np.zeros(shape, dtype=total)
    for start in range(0, n_words, block):
        stop = min(n_words, start + block)
        rows = stop - start
        np.bitwise_and(a[start:stop], b[start:stop], out=joint[:rows])
        np.add.reduce(
            _word_counts(joint[:rows], counts[:rows]), axis=0, dtype=total, out=partial
        )
        result += partial
    return result.astype(np.int64)


def _word_counts(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Set bits of each uint64 word, as uint8 of the same shape."""
    if _BITWISE_COUNT is not None:
        return _BITWISE_COUNT(words, out=out)
    per_byte = _POPCOUNT8[words.view(np.uint8)]
    return np.add.reduce(
        per_byte.reshape(words.shape + (8,)), axis=-1, dtype=np.uint8, out=out
    )


def scatter_bits(
    words: np.ndarray, masks: np.ndarray, bits: np.ndarray
) -> None:
    """OR bit ``bits[k]`` of mask ``masks[k]`` into packed ``words`` in place.

    ``words`` is a ``(n_masks, n_words)`` packed array; each ``(mask, bit)``
    pair of the broadcast ``masks`` and ``bits`` sets one bit (a column of
    bit numbers beside a matrix of masks sets bit ``r`` of every mask in
    row ``r``).  Duplicate pairs are harmless (OR is idempotent).
    The update never touches tail words beyond the given bit positions, so
    the tail-zero invariant is preserved as long as every ``bit`` is within
    the matrix's ``n_bits``.

    One unbuffered ``np.bitwise_or.at`` scatter: no Python loop and no
    dense intermediate, so packing costs O(total set bits) memory instead
    of O(n_masks * n_bits), and it writes through non-contiguous views.
    """
    np.bitwise_or.at(words, (masks, bits >> 6), _BIT_VALUES[bits & 63])


def _flat_ids(transactions: Sequence[Sequence[int]], total: int) -> np.ndarray:
    """Every item id of ``transactions`` in order, as int64.

    ``np.fromiter`` converts each id as ``int()`` does (floats truncate,
    digit strings parse, NaN, ``None`` and non-numeric strings raise
    ``int()``'s exception).  An id that int64 cannot hold raises
    ``OverflowError`` there; the per-id ``int()`` loop then maps it to -1,
    which lies outside every item space, so it is dropped like any other
    unknown id.
    """
    try:
        return np.fromiter(
            chain.from_iterable(transactions), dtype=np.int64, count=total
        )
    except OverflowError:
        return np.fromiter(
            (
                item if -(2**63) <= item < 2**63 else -1
                for item in map(int, chain.from_iterable(transactions))
            ),
            dtype=np.int64,
            count=total,
        )


def pack_transactions(
    transactions: Sequence[Sequence[int]] | np.ndarray, n_items: int
) -> tuple["BitMatrix", int]:
    """Item-major packed bits of ``transactions`` and the ids dropped.

    Mask ``i`` (of ``n_items``) has bit ``t`` set iff item ``i`` is in
    transaction ``t``.  Ids outside ``[0, n_items)`` set no bit; the
    second value counts them, one per occurrence.  Duplicate ids within a
    row set the same bit once and are not counted.

    ``transactions`` is a sequence of id rows or a 2-D integer id matrix,
    one row per transaction: a categorical dataset's ``rows + offsets``
    (:func:`repro.datasets.transactions.item_ids`) is one, so fit and
    predict on a dataset pack through this same pass.

    One vectorized pass per block of ``_PACK_ROWS`` rows, ORing the
    block's ids into the words with one :func:`scatter_bits`.  A matrix
    block whose largest id, compared unsigned, lies in the item space
    scatters as it is, its row numbers broadcast along each row.  Any
    other block is flattened (a matrix block reshaped, rows of any other
    form through :func:`_flat_ids`) and masked to the item space first.
    The block bounds the transient id, row and bit arrays whatever the
    number of rows.
    """
    n_rows = len(transactions)
    words = np.zeros((n_items, word_count(n_rows)), dtype=_WORD_DTYPE)
    dropped = 0
    matrix = (
        isinstance(transactions, np.ndarray)
        and transactions.ndim == 2
        and transactions.dtype.kind in "iu"
    )
    rest = iter(transactions)
    for start in range(0, n_rows, _PACK_ROWS):
        if matrix:
            # uint64 ids past int64 wrap negative; a negative id views
            # as an unsigned value of at least 2**63.
            items = transactions[start : start + _PACK_ROWS].astype(
                np.int64, copy=False
            )
            rows = np.arange(start, start + len(items), dtype=np.intp)
            if not items.size or items.view(np.uint64).max() < n_items:
                scatter_bits(words, items, rows[:, np.newaxis])
                continue
            rows = np.repeat(rows, items.shape[1])
            items = items.reshape(-1)
        else:
            block = list(islice(rest, _PACK_ROWS))
            lengths = list(map(len, block))
            items = _flat_ids(block, sum(lengths))
            rows = np.repeat(
                np.arange(start, start + len(block), dtype=np.intp), lengths
            )
        # One unsigned compare tests both ends: a negative id views as a
        # value at least 2**63.
        known = items.view(np.uint64) < n_items
        n_known = int(np.count_nonzero(known))
        if n_known < items.size:
            dropped += items.size - n_known
            items, rows = items[known], rows[known]
        scatter_bits(words, items, rows)
    return BitMatrix(words, n_rows), dropped


def pack_labels(labels: Sequence[int] | np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class row masks: mask ``c`` (of ``n_classes``) marks rows labelled c.

    One scatter of one bit per row.  Raises ``ValueError`` for a label
    outside ``[0, n_classes)``.
    """
    label_array = np.asarray(labels, dtype=np.intp)
    n_rows = len(label_array)
    if n_rows and (label_array.min() < 0 or label_array.max() >= n_classes):
        raise ValueError(f"labels outside [0, {n_classes})")
    words = np.zeros((n_classes, word_count(n_rows)), dtype=_WORD_DTYPE)
    scatter_bits(words, label_array, np.arange(n_rows, dtype=np.intp))
    return words


def pack_rows(
    transactions: Sequence[Sequence[int]],
    labels: Sequence[int] | np.ndarray,
    n_items: int,
    n_classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pack one shard's rows into (item words, label words).

    The one shard packer: the out-of-core writer seals its files with it
    and the stream window its shards.  The item words are
    :func:`pack_transactions`'s, the label words :func:`pack_labels`'s.
    Raises ``ValueError`` for an item outside ``[0, n_items)``, a label
    outside ``[0, n_classes)``, or rows and labels of different lengths.
    """
    if len(transactions) != len(labels):
        raise ValueError("transactions and labels must align")
    item_bits, dropped = pack_transactions(transactions, n_items)
    if dropped:
        raise ValueError(f"transaction items outside [0, {n_items})")
    return item_bits.words, pack_labels(labels, n_classes)


def packed_ones(n_bits: int) -> np.ndarray:
    """All-ones mask of ``n_bits`` bits (tail bits of the last word zero)."""
    words = np.full(word_count(n_bits), ~np.uint64(0), dtype=_WORD_DTYPE)
    tail = n_bits % WORD_BITS
    if words.size and tail:
        words[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
    return words


class CoverPlan:
    """Itemsets laid out for the pipeline's one cover kernel.

    ``table`` is position-major, ``(width, n_itemsets)``: column ``j``
    holds the items of itemset ``j``, padded to the longest itemset by
    repeating its last item (AND is idempotent, so padding leaves every
    cover unchanged).  ``empty`` lists the empty itemsets, whose cover is
    all ones rather than a gather.  A block of covers is one ``take`` of
    item masks, ``(width, block, n_words)``, ANDed over the leading axis,
    so each step of the reduce ANDs a whole contiguous ``(block,
    n_words)`` slab.
    The featurizer holds one per fitted pattern set; :func:`pattern_covers`
    and :func:`class_counts` build one per call.

    Raises ``IndexError`` for an item outside ``[0, n_items)``.
    """

    __slots__ = ("table", "empty")

    def __init__(self, itemsets: Sequence[Sequence[int]], n_items: int) -> None:
        lengths = np.fromiter(map(len, itemsets), dtype=np.intp, count=len(itemsets))
        flat = np.fromiter(
            chain.from_iterable(itemsets), dtype=np.intp, count=int(lengths.sum())
        )
        if flat.size and (flat.min() < 0 or flat.max() >= n_items):
            raise IndexError(f"itemset items outside [0, {n_items})")
        width = int(lengths.max(initial=0))
        starts = np.cumsum(lengths) - lengths
        # Row c of column j reads item min(c, len_j - 1) of itemset j; an
        # empty itemset's column reads any valid position and is overwritten.
        offsets = np.minimum(np.arange(width)[:, np.newaxis], lengths - 1)
        self.table = flat[np.maximum(starts + offsets, 0)]
        self.empty = np.flatnonzero(lengths == 0)

    def __len__(self) -> int:
        return self.table.shape[1]

    def block_rows(self, n_words: int) -> int:
        """Itemsets per block: as many as a gather of ``n_words``-word
        masks, padded width included, fits in ``_COVER_BLOCK_BYTES``."""
        row_bytes = max(1, self.table.shape[0]) * max(1, n_words) * 8
        return max(1, _COVER_BLOCK_BYTES // row_bytes)

    def covers(
        self,
        item_words: np.ndarray,
        start: int,
        stop: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Covers of itemsets ``start:stop`` over ``item_words``, written
        into ``out`` when given.  Empty itemsets read as all-ones words,
        tail bits included: the caller sets them."""
        return np.bitwise_and.reduce(
            item_words.take(self.table[:, start:stop], axis=0), axis=0, out=out
        )

    def covers_into(self, item_bits: "BitMatrix", out: np.ndarray) -> None:
        """Write the cover of itemset ``j`` into ``out[j]``.

        One gather and one AND-reduce straight into ``out`` per block —
        a single block for a served request or a chunk of a batch.
        Records nothing: it runs once per served request.
        """
        item_words = item_bits.words
        step = self.block_rows(item_words.shape[1])
        for start in range(0, len(self), step):
            self.covers(item_words, start, start + step, out[start : start + step])
        if self.empty.size:
            out[self.empty] = packed_ones(item_bits.n_bits)


def pattern_covers(
    item_bits: "BitMatrix", itemsets: Sequence[Sequence[int]]
) -> Iterator[tuple[int, np.ndarray]]:
    """Covers of ``itemsets`` over ``item_bits``, in itemset order.

    Yields one ``(start, covers)`` pair per block of
    :meth:`CoverPlan.block_rows` itemsets: ``covers[r]`` is the AND of the
    item masks of ``itemsets[start + r]`` (all ones for the empty
    itemset), and the blocks follow each other with no gap.  Each block
    is one gather and one AND-reduce over the padded table, so no buffer
    grows with the number of itemsets, and its size goes to the
    ``bitset.kernel_batch_words`` histogram.
    Raises ``IndexError`` for an item outside ``[0, n_masks)``.
    """
    plan = CoverPlan(itemsets, item_bits.n_masks)
    item_words = item_bits.words
    session = _obs._ACTIVE
    step = plan.block_rows(item_words.shape[1])
    for start in range(0, len(plan), step):
        covers = plan.covers(item_words, start, start + step)
        lo, hi = np.searchsorted(plan.empty, (start, start + step))
        if hi > lo:
            covers[plan.empty[lo:hi] - start] = packed_ones(item_bits.n_bits)
        if session is not None:
            session.observe("bitset.kernel_batch_words", covers.size)
        yield start, covers


def class_counts(
    item_bits: "BitMatrix",
    label_words: np.ndarray,
    itemsets: Sequence[Sequence[int]],
) -> np.ndarray:
    """``(k, m)`` counts ``popcount(label_words[c] & cover(itemsets[j]))``.

    The per-class support kernel of the pipeline: contingency tables,
    recounts, stream shard and out-of-core shard counts all reduce to it.
    Covers come blockwise and in order from :func:`pattern_covers`, so
    the transient memory is one block whatever ``k`` is.
    """
    label_words = np.asarray(label_words)
    counts = np.zeros((len(itemsets), label_words.shape[0]), dtype=np.int64)
    for start, covers in pattern_covers(item_bits, itemsets):
        for label, words in enumerate(label_words):
            counts[start : start + len(covers), label] = popcount(covers & words)
    return counts


class SupportQueries:
    """Single-pattern support queries of a dataset held as packed bits.

    Mixed into :class:`~repro.datasets.transactions.TransactionDataset`
    and :class:`~repro.core.shards.VerticalDataset`, which provide
    ``n_rows``, ``n_items``, ``n_classes``, ``item_bits()`` and
    ``label_bits()``.  A pattern with an item outside ``[0, n_items)``
    covers no row.
    """

    def _cover(self, pattern: Iterable[int]) -> np.ndarray | None:
        """Packed cover of ``pattern``, or None if an item is out of range."""
        items = [int(i) for i in pattern]
        if any(i < 0 or i >= self.n_items for i in items):
            return None
        [(_, covers)] = pattern_covers(self.item_bits(), [items])
        return covers[0]

    def support_count(self, pattern: Iterable[int]) -> int:
        """Absolute support |D_alpha| of a pattern (itemset)."""
        cover = self._cover(pattern)
        return 0 if cover is None else int(popcount(cover))

    def covers(self, pattern: Iterable[int]) -> np.ndarray:
        """Boolean mask over rows: which transactions contain the pattern."""
        cover = self._cover(pattern)
        if cover is None:
            return np.zeros(self.n_rows, dtype=bool)
        return unpack_bits(cover, self.n_rows)

    def class_support_counts(self, pattern: Iterable[int]) -> np.ndarray:
        """Per-class absolute support of a pattern, indexed by class label."""
        cover = self._cover(pattern)
        if cover is None:
            return np.zeros(self.n_classes, dtype=np.int64)
        return popcount(self.label_bits().words & cover)


class BitMatrix:
    """A stack of packed bitmasks: ``n_masks`` masks of ``n_bits`` bits each.

    ``words`` has shape ``(n_masks, word_count(n_bits))`` and dtype
    ``'<u8'``.  In the pipeline's vertical orientation mask ``i`` is item
    ``i``'s tidset: bit ``t`` is set iff transaction ``t`` contains the
    item.
    """

    __slots__ = ("words", "n_bits")

    def __init__(self, words: np.ndarray, n_bits: int) -> None:
        words = np.ascontiguousarray(words, dtype=_WORD_DTYPE)
        if words.ndim != 2:
            raise ValueError("words must be 2-D (n_masks, n_words)")
        if words.shape[1] != word_count(n_bits):
            raise ValueError(
                f"mask of {n_bits} bits needs {word_count(n_bits)} words, "
                f"got {words.shape[1]}"
            )
        self.words = words
        self.n_bits = int(n_bits)

    # ------------------------------------------------------------------
    @classmethod
    def vertical(
        cls, transactions: Sequence[Sequence[int]] | np.ndarray, n_items: int
    ) -> "BitMatrix":
        """Item-major tidset masks over a transaction database.

        Mask ``i`` (of ``n_items``) has bit ``t`` set iff item ``i`` is in
        transaction ``t`` — the transpose of the dense occurrence matrix,
        packed by :func:`pack_transactions` from id rows or a 2-D id
        matrix.  Raises ``IndexError`` for an item outside
        ``[0, n_items)``.
        """
        item_bits, dropped = pack_transactions(transactions, n_items)
        if dropped:
            raise IndexError(f"transaction items outside [0, {n_items})")
        return item_bits

    # ------------------------------------------------------------------
    @property
    def n_masks(self) -> int:
        return self.words.shape[0]

    def popcounts(self) -> np.ndarray:
        """Per-mask set-bit counts (vertical orientation: item supports)."""
        return popcount(self.words)

    def to_dense(self) -> np.ndarray:
        """Unpacked boolean matrix of shape ``(n_masks, n_bits)``."""
        return unpack_bits(self.words, self.n_bits)

    def __len__(self) -> int:
        return self.n_masks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitMatrix(n_masks={self.n_masks}, n_bits={self.n_bits})"
