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
"""

from __future__ import annotations

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
    "intersection_counts",
    "packed_ones",
    "scatter_bits",
    "pattern_covers",
    "class_counts",
]

WORD_BITS = 64
#: Explicit little-endian words: platform-independent packed layout.
_WORD_DTYPE = np.dtype("<u8")
#: Bits set in each possible byte value; fallback popcount is a table
#: gather + sum when the hardware popcount ufunc (numpy >= 2.0) is absent.
_POPCOUNT8 = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1
).sum(axis=1).astype(np.int64)
_BITWISE_COUNT = getattr(np, "bitwise_count", None)
#: Byte budget of one block of covers from :func:`pattern_covers`: bounds
#: the transient ``(block, n_words)`` uint64 buffer of every batched cover
#: and count, however many itemsets the batch holds.
_COVER_BLOCK_BYTES = 4 << 20
#: Byte budget of one block of ``masks & mask`` in
#: :func:`intersection_counts` (MMRFS's per-acceptance redundancy refresh).
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
    if _BITWISE_COUNT is not None:
        return _BITWISE_COUNT(words).sum(axis=-1, dtype=np.int64)
    counts = _POPCOUNT8[words.view(np.uint8)]
    return counts.reshape(words.shape[:-1] + (-1,)).sum(axis=-1)


def intersection_counts(masks: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``popcount(masks[k] & mask)`` for every row of ``masks``.

    The packed form of ``dense_masks[:, dense_mask].sum(axis=1)`` — one AND
    plus a table gather instead of a boolean fancy-index per row.  A stack
    of masks is ANDed in row blocks of at most ``_INTERSECTION_BLOCK_BYTES``,
    so the transient buffer is bounded however many masks there are.
    """
    if _obs._ACTIVE is not None:
        _obs._ACTIVE.add("bitset.intersection_calls", 1)
    block = max(1, _INTERSECTION_BLOCK_BYTES // max(1, mask.size * 8))
    if masks.ndim == 1 or len(masks) <= block:
        return popcount(masks & mask)
    counts = np.empty(len(masks), dtype=np.int64)
    for start in range(0, len(masks), block):
        counts[start : start + block] = popcount(masks[start : start + block] & mask)
    return counts


def scatter_bits(
    words: np.ndarray, masks: np.ndarray, bits: np.ndarray
) -> None:
    """OR bit ``bits[k]`` of mask ``masks[k]`` into packed ``words`` in place.

    ``words`` is a ``(n_masks, n_words)`` packed array; each ``(mask, bit)``
    pair sets one bit.  Duplicate pairs are harmless (OR is idempotent).
    The update never touches tail words beyond the given bit positions, so
    the tail-zero invariant is preserved as long as every ``bit`` is within
    the matrix's ``n_bits``.

    Fully vectorized: one argsort over the flat word addresses plus a
    ``bitwise_or.reduceat`` merge of same-word bits — no Python loop and no
    dense intermediate, which is what keeps :meth:`BitMatrix.vertical` at
    O(total set bits) memory instead of O(n_masks * n_bits).
    """
    if masks.size == 0:
        return
    n_words = words.shape[-1]
    word_idx = bits >> 6
    values = np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64))
    flat = masks * n_words + word_idx
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    starts = np.flatnonzero(
        np.concatenate(([True], flat[1:] != flat[:-1]))
    )
    merged = np.bitwise_or.reduceat(values[order], starts)
    addresses = flat[starts]
    # Addresses are unique after the reduceat merge, so the fancy-indexed
    # in-place OR is exact (and works for non-contiguous words too).
    words[addresses // n_words, addresses % n_words] |= merged


def packed_ones(n_bits: int) -> np.ndarray:
    """All-ones mask of ``n_bits`` bits (tail bits of the last word zero)."""
    words = np.full(word_count(n_bits), ~np.uint64(0), dtype=_WORD_DTYPE)
    tail = n_bits % WORD_BITS
    if words.size and tail:
        words[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
    return words


def pattern_covers(
    item_bits: "BitMatrix", itemsets: Sequence[Sequence[int]]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Coverage masks of many itemsets, one bounded block at a time.

    Yields ``(positions, covers)`` pairs: ``covers[r]`` is the AND of the
    item masks of ``itemsets[positions[r]]`` (the all-ones mask for the
    empty itemset), exactly :meth:`BitMatrix.and_reduce` of that itemset.
    Every position appears in exactly one block.  Itemsets are grouped by
    length — the grouping of the compiled serving matcher — so a block of
    ``length``-item patterns costs ``length`` gathers and ANDs over whole
    ``(block, n_words)`` arrays, not a Python call per pattern.  A block
    holds at most ``_COVER_BLOCK_BYTES`` of words, so no ``(k, n_words)``
    buffer is built for ``k`` itemsets.

    Raises ``IndexError`` for an item outside ``[0, n_masks)``.
    """
    item_words = item_bits.words
    n_words = item_words.shape[1]
    groups: dict[int, list[int]] = {}
    for position, items in enumerate(itemsets):
        groups.setdefault(len(items), []).append(position)
    block = max(1, _COVER_BLOCK_BYTES // max(1, n_words * 8))
    session = _obs._ACTIVE
    for length in sorted(groups):
        positions = np.asarray(groups[length], dtype=np.intp)
        gather = np.asarray([itemsets[p] for p in groups[length]], dtype=np.intp)
        if gather.size and (gather.min() < 0 or gather.max() >= item_bits.n_masks):
            raise IndexError(f"itemset items outside [0, {item_bits.n_masks})")
        for start in range(0, len(positions), block):
            columns = gather[start : start + block]
            if length == 0:
                covers = np.tile(packed_ones(item_bits.n_bits), (len(columns), 1))
            else:
                covers = item_words[columns[:, 0]]
                for column in range(1, length):
                    covers &= item_words[columns[:, column]]
            if session is not None:
                session.observe("bitset.kernel_batch_words", covers.size)
            yield positions[start : start + block], covers


def class_counts(
    item_bits: "BitMatrix",
    label_words: np.ndarray,
    itemsets: Sequence[Sequence[int]],
) -> np.ndarray:
    """``(k, m)`` counts ``popcount(label_words[c] & cover(itemsets[j]))``.

    The per-class support kernel of the pipeline: contingency tables,
    recounts, stream shard and out-of-core shard counts all reduce to it.
    Covers come blockwise from :func:`pattern_covers`, so the transient
    memory is one block whatever ``k`` is.
    """
    label_words = np.asarray(label_words)
    counts = np.zeros((len(itemsets), label_words.shape[0]), dtype=np.int64)
    for positions, covers in pattern_covers(item_bits, itemsets):
        for label, words in enumerate(label_words):
            counts[positions, label] = popcount(covers & words)
    return counts


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
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        """Pack a boolean ``(n_masks, n_bits)`` matrix row-wise."""
        dense = np.asarray(dense, dtype=bool)
        if dense.ndim != 2:
            raise ValueError("dense must be 2-D")
        return cls(pack_bits(dense), dense.shape[1])

    @classmethod
    def vertical(
        cls, transactions: Sequence[Sequence[int]], n_items: int
    ) -> "BitMatrix":
        """Item-major tidset masks over a transaction database.

        Mask ``i`` (of ``n_items``) has bit ``t`` set iff item ``i`` is in
        transaction ``t`` — the transpose of the dense occurrence matrix,
        packed.
        """
        n_rows = len(transactions)
        words = np.zeros((n_items, word_count(n_rows)), dtype=_WORD_DTYPE)
        if n_rows:
            # Scatter bits straight into the packed words — the dense
            # (n_items, n_rows) bool intermediate this used to build cost
            # O(n_items * n_rows) bytes per pack, which dwarfed the packed
            # result 8x-per-item-arity and spiked RSS on wide datasets.
            lengths = np.fromiter(
                (len(t) for t in transactions), dtype=np.intp, count=n_rows
            )
            total = int(lengths.sum())
            if total:
                items = np.fromiter(
                    (i for t in transactions for i in t),
                    dtype=np.intp,
                    count=total,
                )
                if items.size and (items.min() < 0 or items.max() >= n_items):
                    raise IndexError(
                        f"transaction items outside [0, {n_items})"
                    )
                rows = np.repeat(np.arange(n_rows, dtype=np.intp), lengths)
                scatter_bits(words, items, rows)
        return cls(words, n_rows)

    # ------------------------------------------------------------------
    @property
    def n_masks(self) -> int:
        return self.words.shape[0]

    def popcounts(self) -> np.ndarray:
        """Per-mask set-bit counts (vertical orientation: item supports)."""
        return popcount(self.words)

    def mask(self, index: int) -> np.ndarray:
        """The packed words of one mask (a view, do not mutate)."""
        return self.words[index]

    def and_reduce(self, indices: Iterable[int]) -> np.ndarray:
        """AND of the selected masks; the all-ones mask when empty.

        Vertical orientation: the coverage mask of the itemset ``indices``
        (the empty itemset covers every transaction).
        """
        indices = list(indices)
        if _obs._ACTIVE is not None:
            _obs._ACTIVE.add("bitset.and_reduce_calls", 1)
        if not indices:
            return packed_ones(self.n_bits)
        if len(indices) == 1:
            return self.words[indices[0]].copy()
        return np.bitwise_and.reduce(self.words[indices], axis=0)

    def support(self, indices: Iterable[int]) -> int:
        """Popcount of the AND-reduction: the itemset's absolute support."""
        return int(popcount(self.and_reduce(indices)))

    def to_dense(self) -> np.ndarray:
        """Unpacked boolean matrix of shape ``(n_masks, n_bits)``."""
        return unpack_bits(self.words, self.n_bits)

    def __len__(self) -> int:
        return self.n_masks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitMatrix(n_masks={self.n_masks}, n_bits={self.n_bits})"
