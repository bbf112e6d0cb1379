"""Per-pattern contingency statistics: the bridge from data to measures.

Every discriminative measure in this package is a function of the 2 x m
contingency table of a binary pattern feature X against the class variable C.
:class:`ContingencyTables` carries the tables of ``k`` patterns as
``(k, m)`` count arrays, the input of every kernel in
:mod:`repro.measures.vectorized`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..datasets.transactions import TransactionDataset
from ..mining.itemsets import MiningResult, Pattern
from ..obs import core as _obs

__all__ = ["ContingencyTables", "batch_contingency_tables"]


@dataclass(frozen=True)
class ContingencyTables:
    """Contingency tables of ``k`` patterns as ``(k, m)`` count arrays.

    Row ``i`` of ``present``/``absent`` is pattern ``i``'s per-class count
    among rows where it is present/absent.  This is the input format of
    the vectorized measure kernels in :mod:`repro.measures.vectorized`.
    """

    present: np.ndarray
    absent: np.ndarray

    def __post_init__(self) -> None:
        if self.present.shape != self.absent.shape or self.present.ndim != 2:
            raise ValueError(
                "present/absent must be matching (n_patterns, n_classes) "
                f"arrays, got {self.present.shape} and {self.absent.shape}"
            )

    @classmethod
    def of(cls, table: MiningResult) -> "ContingencyTables":
        """The view of a per-class candidate table: no counting."""
        present = table.counts
        return cls(present=present, absent=table.class_totals[np.newaxis] - present)

    def __len__(self) -> int:
        return self.present.shape[0]

    @property
    def n_classes(self) -> int:
        return self.present.shape[1]

    @property
    def supports(self) -> np.ndarray:
        """Absolute support of each pattern."""
        return self.present.sum(axis=1)

    @property
    def n_rows(self) -> int:
        if not len(self):
            return 0
        return int(self.present[0].sum() + self.absent[0].sum())

    @property
    def thetas(self) -> np.ndarray:
        """Relative support of each pattern (0 on an empty dataset)."""
        n = self.n_rows
        return self.supports / n if n else np.zeros(len(self))

    def majority_classes(self) -> np.ndarray:
        """Majority class of each pattern among the rows it covers.

        Support-0 rows resolve to class 0, matching the scalar convention.
        """
        if not self.n_classes:
            return np.zeros(len(self), dtype=np.int64)
        return np.argmax(self.present, axis=1)


def batch_contingency_tables(
    patterns: Sequence[Pattern],
    data: TransactionDataset,
) -> ContingencyTables:
    """Contingency tables for a list of patterns as ``(k, m)`` count arrays.

    One :meth:`~repro.mining.itemsets.MiningResult.counted` pass, the one
    a mined candidate table already had: read such a table with
    :meth:`ContingencyTables.of` instead of counting it again.
    """
    session = _obs._ACTIVE
    if session is not None:
        session.add("measures.contingency.batches", 1)
        session.add("measures.contingency.patterns", len(patterns))
        session.record("measures.contingency.batch_size", len(patterns))
    table = MiningResult.counted([p.items for p in patterns], data)
    return ContingencyTables.of(table)
