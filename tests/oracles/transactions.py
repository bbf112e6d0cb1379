"""The row form of a transaction database, as the library held it before
its datasets kept packed words.

:func:`class_partition` splits rows by label, the partitioning that
``mine_class_patterns`` now does by compacting item words.
:func:`row_words` packs canonicalized rows through a dense matrix, and
:func:`row_content_hash` is the row-by-row digest that
``TransactionDataset.content_hash`` must keep reproducing.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from tests.oracles.dense_bits import bit_matrix


def class_partition(data) -> dict[int, list[tuple[int, ...]]]:
    """``data``'s transactions split by class label, every class present
    (feature-generation step 1)."""
    partition: dict[int, list[tuple[int, ...]]] = {
        c: [] for c in range(data.n_classes)
    }
    for transaction, label in zip(data.transactions, data.labels):
        partition[int(label)].append(transaction)
    return partition


def canonical_rows(
    transactions: Sequence[Sequence[int]], n_items: int
) -> list[tuple[int, ...]]:
    """Each row sorted and deduplicated; ``ValueError`` for a row with an
    item outside ``[0, n_items)``."""
    rows = [tuple(sorted(set(int(i) for i in t))) for t in transactions]
    for row in rows:
        if row and (row[0] < 0 or row[-1] >= n_items):
            raise ValueError(f"transaction {row} has items outside [0, {n_items})")
    return rows


def row_words(
    rows: Sequence[tuple[int, ...]],
    labels: Sequence[int],
    n_items: int,
    n_classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(item words, label words) of canonical ``rows``, packed from a dense
    ``(mask, row)`` matrix."""
    items = np.zeros((n_items, len(rows)), dtype=bool)
    for t, row in enumerate(rows):
        items[list(row), t] = True
    marks = np.asarray(labels, dtype=np.int64)[np.newaxis, :] == np.arange(n_classes)[
        :, np.newaxis
    ]
    return bit_matrix(items).words, bit_matrix(marks).words


def row_content_hash(
    rows: Sequence[tuple[int, ...]],
    labels: Sequence[int],
    n_items: int,
    n_classes: int,
) -> str:
    """The digest of ``content_hash``, computed row by row."""
    digest = hashlib.sha256()
    digest.update(f"{len(rows)}:{n_items}:{n_classes};".encode())
    for row, label in zip(rows, labels):
        digest.update(",".join(map(str, row)).encode())
        digest.update(f"|{int(label)};".encode())
    return digest.hexdigest()[:16]
