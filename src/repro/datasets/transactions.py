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

from ..core.bitset import BitMatrix, SupportQueries, pack_labels
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


class TransactionDataset(SupportQueries):
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
        self._setup(
            [tuple(sorted(set(t))) for t in transactions],
            labels,
            n_items,
            n_classes,
            catalog,
            name,
        )

    @classmethod
    def _of_canonical(
        cls, transactions: list[tuple[int, ...]], *args
    ) -> "TransactionDataset":
        """A dataset over rows that are already sorted, duplicate-free
        tuples; the other arguments are those of ``__init__``."""
        data = cls.__new__(cls)
        data._setup(transactions, *args)
        return data

    def _setup(
        self,
        transactions: list[tuple[int, ...]],
        labels: Sequence[int] | np.ndarray,
        n_items: int,
        n_classes: int | None,
        catalog: ItemCatalog | None,
        name: str,
    ) -> None:
        self.transactions: list[tuple[int, ...]] = transactions
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
        """Itemize a categorical dataset via the (attr, value) -> item map.

        The rows of :func:`item_ids` are the transactions as they are (no
        sort), and one :func:`~repro.core.bitset.pack_transactions` pass
        over the id matrix fills the :meth:`item_bits` cache: the pass
        ``FrequentPatternClassifier.predict`` runs on a dataset.
        """
        catalog = ItemCatalog.from_dataset(dataset)
        ids = item_ids(dataset)
        data = cls._of_canonical(
            list(map(tuple, ids.tolist())),
            dataset.labels,
            catalog.n_items,
            dataset.n_classes,
            catalog,
            dataset.name,
        )
        data._item_bits = BitMatrix.vertical(ids, data.n_items)
        return data

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
        return TransactionDataset._of_canonical(
            [self.transactions[int(i)] for i in indices],
            self.labels[indices],
            self.n_items,
            self.n_classes,
            self.catalog,
            self.name,
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
            self._label_bits = BitMatrix(
                pack_labels(self.labels, self.n_classes), self.n_rows
            )
        return self._label_bits

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransactionDataset(name={self.name!r}, rows={self.n_rows}, "
            f"items={self.n_items}, classes={self.n_classes})"
        )
