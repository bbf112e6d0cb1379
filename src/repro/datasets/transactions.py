"""Transaction encoding: the (attribute, value) -> item mapping of Section 2.

A :class:`repro.datasets.schema.Dataset` row with ``k`` categorical attributes
becomes a transaction of exactly ``k`` items, one per attribute, drawn from the
global item space ``I = {o_1, ..., o_d}``.  Frequent-pattern miners operate on
these transactions; classifiers operate on the equivalent binary matrix in
``B^d``.

Because every row has one item per attribute, a dataset's transactions are
one fixed-width id matrix, ``rows + offsets`` (:func:`item_ids`), ascending
row by row.  One :func:`~repro.core.bitset.pack_transactions` pass over that
matrix gives the packed item bits, both when a training set is itemized
(:meth:`TransactionDataset.from_dataset`) and when a fitted model predicts
on a dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.bitset import (
    BitMatrix,
    pack_bits,
    pack_labels,
    pack_transactions,
    pattern_covers,
    popcount,
    unpack_bits,
    unpack_transactions,
)
from .schema import Dataset

__all__ = ["ItemCatalog", "TransactionDataset", "item_ids"]


def item_ids(dataset: Dataset) -> np.ndarray:
    """The ``(n_rows, n_attributes)`` int64 item-id matrix of ``dataset``.

    Entry ``(i, j)`` is attribute ``j``'s value index in row ``i`` plus the
    attribute's offset (``dataset.offsets``, kept since construction), the
    :class:`ItemCatalog` numbering.  The offsets ascend and each value
    index is below its attribute's arity, so every row is strictly
    ascending: the rows are canonical transactions as they are.  No names
    are rendered and no row is sorted.
    """
    return dataset.rows + dataset.offsets


@dataclass(frozen=True)
class ItemCatalog:
    """Bidirectional map between (attribute index, value index) and item ids.

    Items are numbered contiguously: attribute 0's values take ids
    ``0 .. arity_0 - 1``, attribute 1's the next block, and so on.  The
    catalog also remembers human-readable names so selected patterns can be
    rendered as e.g. ``{outlook=sunny, humidity=high}``.
    """

    offsets: tuple[int, ...]
    item_names: tuple[str, ...]

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "ItemCatalog":
        offsets = []
        names = []
        running = 0
        for attribute in dataset.attributes:
            offsets.append(running)
            running += attribute.arity
            names.extend(f"{attribute.name}={value}" for value in attribute.values)
        return cls(offsets=tuple(offsets), item_names=tuple(names))

    @property
    def n_items(self) -> int:
        return len(self.item_names)

    def item_id(self, attribute_index: int, value_index: int) -> int:
        """Item id for the (attribute, value) pair."""
        return self.offsets[attribute_index] + value_index

    def attribute_of(self, item: int) -> int:
        """Index of the attribute an item belongs to."""
        # offsets is sorted; rightmost offset <= item
        return int(np.searchsorted(self.offsets, item, side="right")) - 1

    def describe(self, items: Iterable[int]) -> str:
        """Render an itemset as ``{attr=value, ...}`` in item-id order."""
        return "{" + ", ".join(self.item_names[i] for i in sorted(items)) + "}"


class TransactionDataset:
    """A labelled transaction database held as packed words.

    The state is built once, at construction: the item-major occurrence
    masks (:meth:`item_bits`), the per-class row masks (:meth:`label_bits`)
    and the labels.  Every stage reads the words; the row form
    (:attr:`transactions`) is a view derived from them on first use.

    Attributes
    ----------
    labels:
        ``np.ndarray[int32]`` class label per row.
    n_items:
        Size ``d`` of the item space.
    catalog:
        Optional :class:`ItemCatalog` for rendering items.
    """

    def __init__(
        self,
        transactions: Sequence[Sequence[int]] | np.ndarray,
        labels: Sequence[int] | np.ndarray,
        n_items: int,
        n_classes: int | None = None,
        catalog: ItemCatalog | None = None,
        name: str = "transactions",
    ) -> None:
        """Pack ``transactions`` (id rows in any order, duplicates allowed,
        or a 2-D id matrix) in one :func:`~repro.core.bitset.pack_transactions`
        pass.  ``ValueError`` if rows and labels differ in length, or for an
        item outside ``[0, n_items)`` or a label outside ``[0, n_classes)``
        (default: the largest label plus one)."""
        labels = np.asarray(labels, dtype=np.int32)
        if len(transactions) != len(labels):
            raise ValueError("transactions and labels must align")
        item_bits, dropped = pack_transactions(transactions, n_items)
        if dropped:
            row = next(
                tuple(sorted(set(map(int, t))))
                for t in transactions
                if any(not 0 <= int(i) < n_items for i in t)
            )
            raise ValueError(f"transaction {row} has items outside [0, {n_items})")
        if n_classes is None:
            n_classes = int(labels.max()) + 1 if len(labels) else 0
        # One class per row: a support is the sum of its per-class counts.
        bad = (labels < 0) | (labels >= n_classes)
        if bad.any():
            raise ValueError(
                f"label {int(labels[np.argmax(bad)])} is outside [0, {n_classes})"
            )
        label_bits = BitMatrix(pack_labels(labels, n_classes), len(labels))
        self._hold(item_bits, label_bits, labels, catalog, name)

    @classmethod
    def from_bits(
        cls,
        item_bits: BitMatrix,
        label_bits: BitMatrix,
        catalog: ItemCatalog | None = None,
        name: str = "transactions",
    ) -> "TransactionDataset":
        """A dataset over packed words a caller already holds, kept as they
        are: mask ``c`` of ``label_bits`` marks the rows of class ``c``.

        Raises ``ValueError`` if the two cover different rows, or a row
        has no label or more than one.
        """
        if item_bits.n_bits != label_bits.n_bits:
            raise ValueError("item and label masks must cover the same rows")
        marks = label_bits.to_dense()
        if np.any(marks.sum(axis=0) != 1):
            raise ValueError("every row needs exactly one label")
        labels = np.nonzero(marks.T)[1].astype(np.int32)
        data = cls.__new__(cls)
        data._hold(item_bits, label_bits, labels, catalog, name)
        return data

    def _hold(self, item_bits, label_bits, labels, catalog, name) -> None:
        # Never mutated after construction (subset() returns a new
        # instance), so the derived rows stay valid for the object's life.
        self._item_bits = item_bits
        self._label_bits = label_bits
        self.labels = labels
        self.n_items = item_bits.n_masks
        self.n_classes = label_bits.n_masks
        self.catalog = catalog
        self.name = name
        self._transactions: list[tuple[int, ...]] | None = None

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "TransactionDataset":
        """Itemize a categorical dataset via the (attr, value) -> item map.

        One :func:`~repro.core.bitset.pack_transactions` pass over the id
        matrix of :func:`item_ids`: the pass
        ``FrequentPatternClassifier.predict`` runs on a dataset.
        """
        catalog = ItemCatalog.from_dataset(dataset)
        ids, labels = item_ids(dataset), dataset.labels
        return cls(ids, labels, catalog.n_items, dataset.n_classes, catalog, dataset.name)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._item_bits.n_bits

    @property
    def transactions(self) -> list[tuple[int, ...]]:
        """The rows in dataset order, each a sorted, duplicate-free tuple:
        :func:`~repro.core.bitset.unpack_transactions` of the item words,
        derived once on first use."""
        if self._transactions is None:
            self._transactions = unpack_transactions(self._item_bits)
        return self._transactions

    def to_binary_matrix(self) -> np.ndarray:
        """The ``B^d`` representation: shape (n_rows, n_items), dtype float64.

        Floats (not bools) so the matrix feeds directly into the numeric
        classifiers.
        """
        return self._item_bits.to_dense().T.astype(np.float64, order="C")

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)

    def content_hash(self) -> str:
        """Deterministic hex digest of the transactions and labels.

        Identifies the exact data a run saw (independent of object identity
        or load path), so run manifests can record which dataset revision
        produced a trace.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(f"{self.n_rows}:{self.n_items}:{self.n_classes};".encode())
        for transaction, label in zip(self.transactions, self.labels):
            digest.update(",".join(map(str, transaction)).encode())
            digest.update(f"|{int(label)};".encode())
        return digest.hexdigest()[:16]

    def subset(self, indices: Sequence[int] | np.ndarray) -> "TransactionDataset":
        """The rows ``indices``, in that order (repeats allowed), over the
        same item and class spaces: one unpack, select and pack of each
        stack of words."""
        rows = np.asarray(indices, dtype=np.intp)
        item_bits, label_bits = (
            BitMatrix(pack_bits(bits.to_dense()[:, rows]), len(rows))
            for bits in (self._item_bits, self._label_bits)
        )
        return TransactionDataset.from_bits(
            item_bits, label_bits, self.catalog, self.name
        )

    # Pattern support queries: an item outside [0, n_items) covers no row.
    def _cover(self, pattern: Iterable[int]) -> np.ndarray | None:
        """Packed cover of ``pattern``, or None if an item is out of range."""
        items = [int(i) for i in pattern]
        if any(i < 0 or i >= self.n_items for i in items):
            return None
        [(_, covers)] = pattern_covers(self._item_bits, [items])
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
        return popcount(self._label_bits.words & cover)

    def item_bits(self) -> BitMatrix:
        """Packed item-major occurrence masks: mask ``i`` marks (bit per
        row) the transactions containing item ``i``.  Mining, contingency
        stats, MMRFS coverage and the design matrix all read these words.
        """
        return self._item_bits

    def label_bits(self) -> BitMatrix:
        """Packed per-class row masks: mask ``c`` marks rows with label c."""
        return self._label_bits

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransactionDataset(name={self.name!r}, rows={self.n_rows}, "
            f"items={self.n_items}, classes={self.n_classes})"
        )
