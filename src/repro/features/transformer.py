"""Mapping D -> D' in B^{d'} (paper Section 2, after Definition 2).

Given selected patterns Fs, every transaction becomes a binary vector over
``I ∪ Fs``: the first ``d`` coordinates are the single-item indicators, the
remaining ``|Fs|`` are pattern-presence indicators.  Featurization of the
*test* set uses the patterns fixed at training time — no test leakage.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.bitset import BitMatrix, pattern_covers
from ..datasets.transactions import TransactionDataset
from ..mining.itemsets import Pattern
from ..obs import core as _obs

__all__ = ["PatternFeaturizer"]


class PatternFeaturizer:
    """Builds the ``I ∪ Fs`` feature space and transforms transactions.

    Parameters
    ----------
    n_items:
        Size ``d`` of the single-item space I.
    patterns:
        The selected patterns Fs (order defines feature layout).
    include_items:
        When False the output holds only pattern indicators — used by
        ablations; the paper's framework always keeps I.
    """

    def __init__(
        self,
        n_items: int,
        patterns: Sequence[Pattern] = (),
        include_items: bool = True,
    ) -> None:
        if n_items < 0:
            raise ValueError("n_items must be >= 0")
        self.n_items = int(n_items)
        self.patterns = list(patterns)
        self.include_items = include_items

    @property
    def n_features(self) -> int:
        """d' = |I| + |Fs| (or |Fs| when items are excluded)."""
        base = self.n_items if self.include_items else 0
        return base + len(self.patterns)

    def feature_names(self, catalog=None) -> list[str]:
        """Human-readable names, using an ItemCatalog when available."""
        names: list[str] = []
        if self.include_items:
            if catalog is not None:
                names.extend(catalog.item_names)
            else:
                names.extend(f"item:{i}" for i in range(self.n_items))
        for pattern in self.patterns:
            if catalog is not None:
                names.append(f"pattern:{catalog.describe(pattern.items)}")
            else:
                names.append("pattern:{" + ",".join(map(str, pattern.items)) + "}")
        return names

    def _item_bits(
        self, data: TransactionDataset | Sequence[Sequence[int]]
    ) -> tuple[BitMatrix, int]:
        """Packed item tidsets over ``data`` plus the row count.

        A :class:`TransactionDataset` contributes its cached masks (shared
        with mining, stats and MMRFS — one occurrence structure per fit);
        raw transaction sequences are packed on the fly.
        """
        if isinstance(data, TransactionDataset) and data.n_items == self.n_items:
            return data.item_bits(), data.n_rows
        transactions = (
            data.transactions
            if isinstance(data, TransactionDataset)
            else list(data)
        )
        return BitMatrix.vertical(transactions, self.n_items), len(transactions)

    def match_bits(
        self, data: TransactionDataset | Sequence[Sequence[int]]
    ) -> BitMatrix:
        """Packed pattern-coverage masks: mask ``j`` marks the rows that
        contain pattern ``j``.

        The masks come from the grouped cover kernel
        (:func:`~repro.core.bitset.pattern_covers`), which is property-tested
        against one :meth:`~repro.core.bitset.BitMatrix.and_reduce` per
        pattern; this is the reference semantics the compiled serving
        matcher (:mod:`repro.serving`) is differential-tested against.
        """
        item_bits, _ = self._item_bits(data)
        return self._pattern_bits(item_bits)

    def _pattern_bits(self, item_bits: BitMatrix) -> BitMatrix:
        pattern_words = np.empty(
            (len(self.patterns), item_bits.words.shape[1]),
            dtype=item_bits.words.dtype,
        )
        itemsets = [p.items for p in self.patterns]
        for positions, covers in pattern_covers(item_bits, itemsets):
            pattern_words[positions] = covers
        return BitMatrix(pattern_words, item_bits.n_bits)

    def match_matrix(
        self, data: TransactionDataset | Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Boolean (n_rows, n_patterns) pattern-presence matrix."""
        return self.match_bits(data).to_dense().T

    def transform(
        self, data: TransactionDataset | Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Binary design matrix (n_rows, n_features) as float64.

        Built from packed item bitsets; the pattern columns are the
        coverage masks of :meth:`match_bits`.
        """
        with _obs.span(
            "features.transform",
            n_patterns=len(self.patterns),
            include_items=self.include_items,
        ) as transform_span:
            item_bits, n_rows = self._item_bits(data)
            transform_span.set(rows=n_rows, features=self.n_features)
            _obs.add("features.transform_cells", n_rows * self.n_features)
            blocks = []
            if self.include_items:
                blocks.append(item_bits.to_dense().T.astype(np.float64))
            if self.patterns:
                pattern_bits = self._pattern_bits(item_bits)
                blocks.append(pattern_bits.to_dense().T.astype(np.float64))
            if not blocks:
                return np.zeros((n_rows, 0))
            return np.hstack(blocks)
