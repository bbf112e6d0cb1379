"""PrefixSpan: frequent sequential pattern mining (Pei et al., ICDE 2001).

PrefixSpan with prefix-projected databases mines frequent
*subsequences*; ``repro diagnose --sequences`` uses it to find ordered
span patterns that separate the labelled runs (slow or failed) from the
rest.

Sequences are tuples of item ids; a pattern ``p`` is *contained* in a
sequence ``s`` if p is a (not necessarily contiguous) subsequence of s.

:func:`class_subsequences` and :func:`containment_matrix` are the
candidate step every sequence consumer shares: the per-class PrefixSpan
union, and which candidate each sequence contains.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .itemsets import PatternBudgetExceeded, absolute_min_support

__all__ = [
    "SequencePattern",
    "prefixspan",
    "is_subsequence",
    "class_subsequences",
    "containment_matrix",
]


class SequencePattern:
    """A frequent subsequence with its absolute support."""

    __slots__ = ("sequence", "support")

    def __init__(self, sequence: tuple[int, ...], support: int) -> None:
        self.sequence = tuple(int(i) for i in sequence)
        if support < 0:
            raise ValueError("support must be non-negative")
        self.support = int(support)

    @property
    def length(self) -> int:
        return len(self.sequence)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SequencePattern)
            and self.sequence == other.sequence
            and self.support == other.support
        )

    def __hash__(self) -> int:
        return hash((self.sequence, self.support))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SequencePattern({self.sequence}, support={self.support})"


def is_subsequence(pattern: Sequence[int], sequence: Sequence[int]) -> bool:
    """True if ``pattern`` is a subsequence of ``sequence`` (order kept,
    gaps allowed)."""
    iterator = iter(sequence)
    return all(any(item == element for element in iterator) for item in pattern)


def prefixspan(
    sequences: Sequence[Sequence[int]],
    min_support: int,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> list[SequencePattern]:
    """Mine all frequent subsequences with support >= ``min_support``.

    Parameters
    ----------
    sequences:
        The sequence database (tuples/lists of item ids).
    min_support:
        Absolute support count, >= 1.
    max_length:
        Optional cap on pattern length.
    max_patterns:
        Enumeration budget; exceeding it raises
        :class:`~repro.mining.itemsets.PatternBudgetExceeded`.

    Returns patterns sorted by (length, sequence) for determinism.
    """
    if min_support < 1:
        raise ValueError("min_support is an absolute count and must be >= 1")
    database = [tuple(int(i) for i in s) for s in sequences]
    patterns: list[SequencePattern] = []

    def emit(prefix: tuple[int, ...], support: int) -> None:
        patterns.append(SequencePattern(prefix, support))
        if max_patterns is not None and len(patterns) > max_patterns:
            raise PatternBudgetExceeded(max_patterns, len(patterns))

    # A projection is a list of (sequence index, start offset) pairs.
    initial = [(index, 0) for index in range(len(database))]
    _grow(database, (), initial, min_support, max_length, emit)
    patterns.sort(key=lambda p: (p.length, p.sequence))
    return patterns


def _grow(database, prefix, projection, min_support, max_length, emit) -> None:
    if max_length is not None and len(prefix) >= max_length:
        return
    # Count each item's support in the projected database (first occurrence
    # per sequence only).
    counts: dict[int, int] = {}
    for sequence_index, offset in projection:
        seen: set[int] = set()
        for item in database[sequence_index][offset:]:
            if item not in seen:
                seen.add(item)
                counts[item] = counts.get(item, 0) + 1

    for item in sorted(item for item, count in counts.items() if count >= min_support):
        new_prefix = prefix + (item,)
        new_projection = []
        for sequence_index, offset in projection:
            sequence = database[sequence_index]
            for position in range(offset, len(sequence)):
                if sequence[position] == item:
                    new_projection.append((sequence_index, position + 1))
                    break
        emit(new_prefix, len(new_projection))
        _grow(database, new_prefix, new_projection, min_support, max_length, emit)


def class_subsequences(
    sequences: Sequence[Sequence[int]],
    labels: Sequence[int],
    min_support: float,
    min_length: int = 1,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> list[tuple[int, ...]]:
    """Union of every class's frequent subsequences, in lexicographic order.

    Each class present in ``labels`` is mined on its own rows at the
    relative ``min_support`` (through
    :func:`~repro.mining.itemsets.absolute_min_support`), with
    ``max_length`` and the ``max_patterns`` budget applied per class;
    subsequences shorter than ``min_length`` are dropped.
    """
    by_class: dict[int, list[Sequence[int]]] = {}
    for sequence, label in zip(sequences, labels):
        by_class.setdefault(int(label), []).append(sequence)
    merged: set[tuple[int, ...]] = set()
    for _, class_sequences in sorted(by_class.items()):
        absolute = absolute_min_support(min_support, len(class_sequences))
        mined = prefixspan(class_sequences, absolute, max_length, max_patterns)
        merged.update(p.sequence for p in mined if p.length >= min_length)
    return sorted(merged)


def containment_matrix(
    patterns: Sequence[Sequence[int]], sequences: Sequence[Sequence[int]]
) -> np.ndarray:
    """Boolean ``(len(patterns), len(sequences))`` matrix: entry ``(i, j)``
    is whether pattern ``i`` is a subsequence of sequence ``j``."""
    matrix = np.zeros((len(patterns), len(sequences)), dtype=bool)
    for i, pattern in enumerate(patterns):
        for j, sequence in enumerate(sequences):
            matrix[i, j] = is_subsequence(pattern, sequence)
    return matrix
