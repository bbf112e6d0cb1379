"""Dataset schema: categorical attributes, class labels, and tabular data.

The paper (Section 2, Problem Formulation) assumes a dataset with ``k``
categorical attributes and ``m`` classes.  Each ``(attribute, value)`` pair is
mapped to a distinct *item*, and every data point becomes a binary vector in
``B^d`` where ``d`` is the total number of items.  This module provides the
tabular (pre-itemization) representation; :mod:`repro.datasets.transactions`
performs the item mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Attribute", "Dataset"]


@dataclass(frozen=True)
class Attribute:
    """A categorical attribute with a fixed, ordered domain of values.

    Parameters
    ----------
    name:
        Human-readable attribute name (e.g. ``"cap-color"``).
    values:
        The ordered domain.  Order only matters for reproducibility of the
        item numbering; semantics are purely categorical.
    """

    name: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"attribute {self.name!r} has an empty domain")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"attribute {self.name!r} has duplicate values")

    @property
    def arity(self) -> int:
        """Number of distinct values in the domain."""
        return len(self.values)

    def index_of(self, value: str) -> int:
        """Position of ``value`` in the domain (raises ``ValueError`` if absent)."""
        try:
            return self.values.index(value)
        except ValueError:
            raise ValueError(
                f"value {value!r} not in domain of attribute {self.name!r}"
            ) from None


@dataclass
class Dataset:
    """A categorical classification dataset.

    Rows hold *value indices* (``rows[i][j]`` indexes into
    ``attributes[j].values``), which keeps the storage compact and makes the
    item mapping a pure arithmetic offset.  Labels are small integers indexing
    into ``class_names``.

    Use :meth:`from_values` to build a dataset from string-valued rows.
    ``offsets[j]`` is attribute ``j``'s first item id, the running sum of
    the arities before it; it is derived once, from the arity vector the
    value-index check reads, so ``attributes`` is not to be reassigned.
    """

    name: str
    attributes: list[Attribute]
    rows: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...] = field(default_factory=tuple)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int32)
        self.labels = np.asarray(self.labels, dtype=np.int32)
        if self.rows.ndim != 2:
            raise ValueError("rows must be a 2-D array of value indices")
        if self.rows.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.rows.shape[0]} rows but {self.labels.shape[0]} labels"
            )
        if self.rows.shape[1] != len(self.attributes):
            raise ValueError(
                f"rows have {self.rows.shape[1]} columns but "
                f"{len(self.attributes)} attributes were declared"
            )
        if not self.class_names:
            n_classes = int(self.labels.max()) + 1 if len(self.labels) else 0
            self.class_names = tuple(f"c{i}" for i in range(n_classes))
        arities = np.array([len(a.values) for a in self.attributes], dtype=np.int64)
        self.offsets = arities.cumsum() - arities
        if self.rows.size:  # a reduction over an empty axis raises
            outside = (self.rows.min(axis=0) < 0) | (self.rows.max(axis=0) >= arities)
            if outside.any():
                j = int(outside.argmax())
                attribute = self.attributes[j]
                raise ValueError(
                    f"column {j} ({attribute.name!r}) contains value indices "
                    f"outside [0, {attribute.arity})"
                )
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= len(self.class_names)
        ):
            raise ValueError("labels reference unknown classes")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_values(
        cls,
        name: str,
        attribute_names: Sequence[str],
        value_rows: Iterable[Sequence[str]],
        labels: Iterable[str],
    ) -> "Dataset":
        """Build a dataset from string-valued rows.

        Attribute domains and the class-name list are inferred from the data,
        in first-appearance order.
        """
        value_rows = [tuple(row) for row in value_rows]
        labels = list(labels)
        if value_rows and any(len(row) != len(attribute_names) for row in value_rows):
            raise ValueError("all rows must have one value per attribute")

        domains: list[dict[str, int]] = [{} for _ in attribute_names]
        encoded = np.zeros((len(value_rows), len(attribute_names)), dtype=np.int32)
        for i, row in enumerate(value_rows):
            for j, value in enumerate(row):
                encoded[i, j] = domains[j].setdefault(str(value), len(domains[j]))

        class_index: dict[str, int] = {}
        encoded_labels = np.array(
            [class_index.setdefault(str(label), len(class_index)) for label in labels],
            dtype=np.int32,
        )
        attributes = [
            Attribute(attr_name, tuple(domain.keys()))
            for attr_name, domain in zip(attribute_names, domains)
        ]
        return cls(
            name=name,
            attributes=attributes,
            rows=encoded,
            labels=encoded_labels,
            class_names=tuple(class_index.keys()),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_items(self) -> int:
        """Total number of (attribute, value) items after the B^d mapping."""
        return sum(attribute.arity for attribute in self.attributes)

    def class_counts(self) -> np.ndarray:
        """Number of rows per class, indexed by class label."""
        return np.bincount(self.labels, minlength=self.n_classes)

    def class_priors(self) -> np.ndarray:
        """Empirical class distribution (sums to 1)."""
        counts = self.class_counts().astype(float)
        total = counts.sum()
        if total == 0:
            return counts
        return counts / total

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------
    def subset(self, indices: Sequence[int] | np.ndarray) -> "Dataset":
        """A new dataset containing only the given row indices.

        Attribute domains and class names are preserved (not re-inferred), so
        subsets of a dataset share an item space — essential for train/test
        splits.
        """
        indices = np.asarray(indices)
        return Dataset(
            name=self.name,
            attributes=self.attributes,
            rows=self.rows[indices],
            labels=self.labels[indices],
            class_names=self.class_names,
        )

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset(name={self.name!r}, rows={self.n_rows}, "
            f"attributes={self.n_attributes}, items={self.n_items}, "
            f"classes={self.n_classes})"
        )
