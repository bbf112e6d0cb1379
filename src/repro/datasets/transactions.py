"""Transaction encoding: the (attribute, value) -> item mapping of Section 2.

A :class:`repro.datasets.schema.Dataset` row with ``k`` categorical attributes
becomes a transaction of exactly ``k`` items, one per attribute, drawn from the
global item space ``I = {o_1, ..., o_d}``.  Frequent-pattern miners operate on
these transactions; classifiers operate on the equivalent binary matrix in
``B^d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.bitset import (
    BitMatrix,
    class_counts,
    packed_ones,
    pattern_covers,
    unpack_bits,
)
from .schema import Dataset

__all__ = ["ItemCatalog", "TransactionDataset"]


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
    """Itemized view of a dataset: one transaction (sorted item tuple) per row.

    Attributes
    ----------
    transactions:
        ``list[tuple[int, ...]]`` — each transaction is sorted ascending.
    labels:
        ``np.ndarray[int32]`` class label per transaction.
    n_items:
        Size ``d`` of the item space.
    catalog:
        Optional :class:`ItemCatalog` for rendering items.
    """

    def __init__(
        self,
        transactions: Sequence[Sequence[int]],
        labels: Sequence[int] | np.ndarray,
        n_items: int,
        n_classes: int | None = None,
        catalog: ItemCatalog | None = None,
        name: str = "transactions",
    ) -> None:
        self.transactions: list[tuple[int, ...]] = [
            tuple(sorted(set(t))) for t in transactions
        ]
        self.labels = np.asarray(labels, dtype=np.int32)
        if len(self.transactions) != len(self.labels):
            raise ValueError("transactions and labels must align")
        for t in self.transactions:
            if t and (t[0] < 0 or t[-1] >= n_items):
                raise ValueError(f"transaction {t} has items outside [0, {n_items})")
        self.n_items = int(n_items)
        if n_classes is None:
            n_classes = int(self.labels.max()) + 1 if len(self.labels) else 0
        self.n_classes = int(n_classes)
        # One class per row: a support is the sum of its per-class counts.
        bad = (self.labels < 0) | (self.labels >= self.n_classes)
        if bad.any():
            raise ValueError(
                f"label {int(self.labels[np.argmax(bad)])} is outside "
                f"[0, {self.n_classes})"
            )
        self.catalog = catalog
        self.name = name
        # Packed occurrence/label masks, built on first use.  Transactions
        # and labels are never mutated after construction (subset() returns
        # a new instance), so the caches stay valid for the object's life.
        self._item_bits: BitMatrix | None = None
        self._label_bits: BitMatrix | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "TransactionDataset":
        """Itemize a categorical dataset via the (attr, value) -> item map."""
        catalog = ItemCatalog.from_dataset(dataset)
        offsets = np.asarray(catalog.offsets, dtype=np.int32)
        itemized = dataset.rows + offsets[np.newaxis, :]
        transactions = [tuple(sorted(row.tolist())) for row in itemized]
        return cls(
            transactions=transactions,
            labels=dataset.labels,
            n_items=catalog.n_items,
            n_classes=dataset.n_classes,
            catalog=catalog,
            name=dataset.name,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return len(self.transactions)

    def to_binary_matrix(self) -> np.ndarray:
        """The ``B^d`` representation: shape (n_rows, n_items), dtype float64.

        Floats (not bools) so the matrix feeds directly into the numeric
        classifiers.
        """
        matrix = np.zeros((self.n_rows, self.n_items), dtype=np.float64)
        for i, transaction in enumerate(self.transactions):
            matrix[i, list(transaction)] = 1.0
        return matrix

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)

    def class_partition(self) -> dict[int, list[tuple[int, ...]]]:
        """Transactions split by class label (feature-generation step 1)."""
        partition: dict[int, list[tuple[int, ...]]] = {
            c: [] for c in range(self.n_classes)
        }
        for transaction, label in zip(self.transactions, self.labels):
            partition[int(label)].append(transaction)
        return partition

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
        indices = np.asarray(indices)
        return TransactionDataset(
            transactions=[self.transactions[int(i)] for i in indices],
            labels=self.labels[indices],
            n_items=self.n_items,
            n_classes=self.n_classes,
            catalog=self.catalog,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Pattern support utilities (shared by miners, measures and MMRFS)
    # ------------------------------------------------------------------
    def item_bits(self) -> BitMatrix:
        """Packed item-major occurrence masks, computed once and cached.

        Mask ``i`` marks (bit per row) the transactions containing item
        ``i``.  Every support/coverage query on this dataset — mining,
        contingency stats, MMRFS coverage, design-matrix construction —
        shares this one structure instead of rebuilding a dense boolean
        occurrence matrix.
        """
        if self._item_bits is None:
            self._item_bits = BitMatrix.vertical(self.transactions, self.n_items)
        return self._item_bits

    def label_bits(self) -> BitMatrix:
        """Packed per-class row masks: mask ``c`` marks rows with label c."""
        if self._label_bits is None:
            classes = np.arange(self.n_classes, dtype=self.labels.dtype)
            dense = self.labels[np.newaxis, :] == classes[:, np.newaxis]
            self._label_bits = BitMatrix.from_dense(dense)
        return self._label_bits

    def _valid_items(self, pattern: Iterable[int]) -> list[int] | None:
        """Pattern items as a list, or None if any item is out of range."""
        items = [int(i) for i in pattern]
        if any(i < 0 or i >= self.n_items for i in items):
            return None
        return items

    def support_count(self, pattern: Iterable[int]) -> int:
        """Absolute support |D_alpha| of a pattern (itemset)."""
        items = self._valid_items(pattern)
        if items is None:
            return 0
        ones = packed_ones(self.n_rows)[np.newaxis]
        return int(class_counts(self.item_bits(), ones, [items])[0, 0])

    def covers(self, pattern: Iterable[int]) -> np.ndarray:
        """Boolean mask over rows: which transactions contain the pattern."""
        items = self._valid_items(pattern)
        if items is None:
            return np.zeros(self.n_rows, dtype=bool)
        [(_, covers)] = pattern_covers(self.item_bits(), [items])
        return unpack_bits(covers[0], self.n_rows)

    def class_support_counts(self, pattern: Iterable[int]) -> np.ndarray:
        """Per-class absolute support of a pattern, indexed by class label."""
        items = self._valid_items(pattern)
        if items is None:
            return np.zeros(self.n_classes, dtype=np.int64)
        return class_counts(self.item_bits(), self.label_bits().words, [items])[0]

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransactionDataset(name={self.name!r}, rows={self.n_rows}, "
            f"items={self.n_items}, classes={self.n_classes})"
        )
