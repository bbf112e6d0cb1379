"""Mapping D -> D' in B^{d'} (paper Section 2, after Definition 2).

Given selected patterns Fs, every transaction becomes a binary vector over
``I ∪ Fs``: the first coordinates are the single-item indicators (all
``d`` items, or the kept ones under an item mask), the remaining ``|Fs|``
are pattern-presence indicators.  Featurization of the *test* set uses
the patterns fixed at training time — no test leakage.

:class:`PatternFeaturizer` is the one owner of that layout.  The batch
pipeline trains on its :meth:`~PatternFeaturizer.transform`, and the
compiled model (:mod:`repro.serving.compiled`), behind both the
pipeline's ``predict`` and the serving path, scores its packed
:meth:`~PatternFeaturizer.feature_words`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.bitset import BitMatrix, CoverPlan, unpack_bits
from ..datasets.schema import Dataset
from ..datasets.transactions import TransactionDataset, item_ids
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
    item_mask:
        Optional boolean mask over the ``d`` items: only the marked item
        columns are kept (the paper's Item_FS).

    The featurizer is immutable: the kept item columns and the patterns'
    cover plan (:class:`~repro.core.bitset.CoverPlan`) are built once
    here, so every transform reuses them.
    """

    def __init__(
        self,
        n_items: int,
        patterns: Sequence[Pattern] = (),
        include_items: bool = True,
        item_mask: np.ndarray | None = None,
    ) -> None:
        if n_items < 0:
            raise ValueError("n_items must be >= 0")
        self.n_items = int(n_items)
        self.patterns = tuple(patterns)
        self.include_items = include_items
        if item_mask is not None:
            item_mask = np.asarray(item_mask, dtype=bool)
            if item_mask.shape != (self.n_items,):
                raise ValueError(
                    f"item_mask must have shape ({self.n_items},), "
                    f"got {item_mask.shape}"
                )
        self.item_mask = item_mask
        #: Item ids of the leading design columns, in column order.
        if not include_items:
            self.item_columns = np.empty(0, dtype=np.intp)
        elif item_mask is None:
            self.item_columns = np.arange(self.n_items, dtype=np.intp)
        else:
            self.item_columns = np.flatnonzero(item_mask)
        try:
            self._plan = CoverPlan([p.items for p in self.patterns], self.n_items)
        except IndexError as exc:
            raise ValueError(f"{exc}: such a pattern can never match") from exc

    @property
    def n_features(self) -> int:
        """d' = kept items + |Fs|."""
        return len(self.item_columns) + len(self.patterns)

    def feature_names(self, catalog=None) -> list[str]:
        """Human-readable names, using an ItemCatalog when available."""
        if catalog is not None:
            names = [catalog.item_names[i] for i in self.item_columns]
        else:
            names = [f"item:{i}" for i in self.item_columns]
        for pattern in self.patterns:
            if catalog is not None:
                names.append(f"pattern:{catalog.describe(pattern.items)}")
            else:
                names.append("pattern:{" + ",".join(map(str, pattern.items)) + "}")
        return names

    def item_bits(
        self,
        data: Dataset | TransactionDataset | BitMatrix | Sequence[Sequence[int]],
    ) -> BitMatrix:
        """Packed item tidsets over ``data``.

        Packed item bits over this item space pass as they are.  A
        :class:`TransactionDataset` over this item space contributes its
        cached masks (shared with mining, stats and MMRFS — one occurrence
        structure per fit); it was validated when it was built.  A
        categorical :class:`~repro.datasets.schema.Dataset` is packed
        straight from its id matrix
        (:func:`~repro.datasets.transactions.item_ids`) in one
        :func:`~repro.core.bitset.pack_transactions` pass, with no item
        catalog and no row tuples.  Other input is packed from its rows.
        Packing raises ``IndexError`` for an item outside
        ``[0, n_items)``.
        """
        if isinstance(data, BitMatrix):
            if data.n_masks != self.n_items:
                raise ValueError(
                    f"item bits hold {data.n_masks} item masks, "
                    f"the featurizer has {self.n_items} items"
                )
            return data
        if isinstance(data, TransactionDataset) and data.n_items == self.n_items:
            return data.item_bits()
        if isinstance(data, Dataset):
            return BitMatrix.vertical(item_ids(data), self.n_items)
        transactions = (
            data.transactions
            if isinstance(data, TransactionDataset)
            else list(data)
        )
        return BitMatrix.vertical(transactions, self.n_items)

    def pattern_bits(self, item_bits: BitMatrix) -> BitMatrix:
        """Packed pattern-coverage masks: mask ``j`` marks the rows of
        ``item_bits`` that contain pattern ``j``."""
        words = np.empty(
            (len(self.patterns), item_bits.words.shape[1]),
            dtype=item_bits.words.dtype,
        )
        self._plan.covers_into(item_bits, words)
        return BitMatrix(words, item_bits.n_bits)

    def feature_words(
        self, item_bits: BitMatrix, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The packed ``I ∪ Fs`` design, feature-major: the kept item masks
        of ``item_bits``, then the pattern-coverage masks, as ``(n_features,
        n_words)`` words.  They are written into ``out`` when given, which
        may be the leading rows of a larger buffer."""
        if out is None:
            out = np.empty(
                (self.n_features, item_bits.words.shape[1]),
                dtype=item_bits.words.dtype,
            )
        kept = len(self.item_columns)
        # The columns are item ids, so "clip" clips nothing; it spares
        # the bounds-checked mode's buffered write.
        item_bits.words.take(self.item_columns, axis=0, out=out[:kept], mode="clip")
        self._plan.covers_into(item_bits, out[kept:])
        return out

    def match_matrix(
        self,
        data: Dataset | TransactionDataset | BitMatrix | Sequence[Sequence[int]],
    ) -> np.ndarray:
        """Boolean (n_rows, n_patterns) pattern-presence matrix."""
        return self.pattern_bits(self.item_bits(data)).to_dense().T

    def transform(
        self,
        data: Dataset | TransactionDataset | BitMatrix | Sequence[Sequence[int]],
    ) -> np.ndarray:
        """Binary design matrix (n_rows, n_features) as float64."""
        with _obs.span(
            "features.transform",
            n_patterns=len(self.patterns),
            include_items=self.include_items,
        ) as transform_span:
            item_bits = self.item_bits(data)
            n_rows = item_bits.n_bits
            transform_span.set(rows=n_rows, features=self.n_features)
            _obs.add("features.transform_cells", n_rows * self.n_features)
            # Transpose the bools, then cast: a strided float64 write is
            # several times slower than a strided bool one.
            dense = unpack_bits(self.feature_words(item_bits), n_rows)
            return np.ascontiguousarray(dense.T).astype(np.float64)
