"""The per-column value-index check a categorical Dataset used to run.

One ``min()`` and one ``max()`` per attribute, columns in order, raising
on the first column that holds an index outside its attribute's domain.
:class:`repro.datasets.schema.Dataset` now checks every column with one
pair of axis reductions; this loop is the reference it must agree with,
accept for accept and message for message.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.schema import Attribute


def check_value_indices(attributes: Sequence[Attribute], rows: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first out-of-domain column."""
    for j, attribute in enumerate(attributes):
        column = rows[:, j]
        if len(column) and (column.min() < 0 or column.max() >= attribute.arity):
            raise ValueError(
                f"column {j} ({attribute.name!r}) contains value indices "
                f"outside [0, {attribute.arity})"
            )
