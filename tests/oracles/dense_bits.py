"""Pack a dense boolean matrix into a BitMatrix, row by row.

The library packs from item ids (``pack_transactions``) and labels
(``pack_labels``); tests and benchmarks that draw their masks as dense
boolean matrices pack them here.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitset import BitMatrix, pack_bits


def bit_matrix(dense: np.ndarray) -> BitMatrix:
    """Pack a boolean ``(n_masks, n_bits)`` matrix row-wise."""
    dense = np.asarray(dense, dtype=bool)
    return BitMatrix(pack_bits(dense), dense.shape[1])
