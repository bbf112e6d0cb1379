"""Pattern types shared by all itemset miners.

A *pattern* (the paper's "combined feature", Definition 1) is a set of items
``alpha = {o_a1 .. o_ak} ⊆ I``.  Internally patterns are canonical sorted
tuples of item ids; :class:`Pattern` pairs the itemset with its absolute
support count in the dataset it was mined from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Pattern",
    "PatternBudgetExceeded",
    "canonical",
    "check_max_length",
    "MiningResult",
]


def canonical(items: Iterable[int]) -> tuple[int, ...]:
    """Canonical (sorted, deduplicated) tuple form of an itemset."""
    return tuple(sorted(set(int(i) for i in items)))


def check_max_length(max_length: int | None) -> None:
    """Reject a pattern-length cap below one item (``None`` means no cap)."""
    if max_length is not None and max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")


class PatternBudgetExceeded(RuntimeError):
    """Raised when a miner emits more patterns than its budget allows.

    Used to reproduce the "cannot complete in days" rows of Tables 3-5
    without actually enumerating millions of patterns: the caller learns the
    enumeration blew past the budget and reports the run as infeasible.

    **Budget semantics (shared by every miner).**  A miner checks the
    budget *after* recording each pattern and raises as soon as its count
    strictly exceeds ``max_patterns``.  Consequently:

    * a database with exactly ``max_patterns`` patterns mines cleanly;
    * on a blow-up, ``emitted`` is the count actually reached when the
      guard tripped — ``budget + 1`` for the single-emission miners
      (frequent_itemsets, closed_fpgrowth), possibly more for bulk merges
      (:func:`repro.mining.generation.mine_class_patterns`).

    ``emitted`` is therefore always a strict lower bound on the true
    pattern count, which is exactly what the ``> budget`` rendering of the
    scalability tables needs.  This behavior is locked in by the
    regression tests in ``tests/test_mining_generation.py``.
    """

    def __init__(self, budget: int, emitted: int | None = None) -> None:
        self.budget = budget
        self.emitted = emitted if emitted is not None else budget
        super().__init__(
            f"pattern enumeration exceeded the budget of {budget} patterns"
        )

    def __reduce__(self):
        # Default exception pickling would replay __init__ with the message
        # string as `budget`; rebuild from the real attributes instead so the
        # exception survives the process-pool boundary of parallel mining.
        return (PatternBudgetExceeded, (self.budget, self.emitted))


@dataclass(frozen=True)
class Pattern:
    """An itemset with its absolute support count.

    ``items`` is always canonical (sorted ascending, no duplicates), so
    patterns hash and compare by value.
    """

    items: tuple[int, ...]
    support: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", canonical(self.items))
        if self.support < 0:
            raise ValueError("support must be non-negative")

    @property
    def length(self) -> int:
        return len(self.items)

    def itemset(self) -> frozenset[int]:
        return frozenset(self.items)

    def contains(self, other: "Pattern") -> bool:
        """True if this pattern is a superset of ``other``."""
        return set(other.items).issubset(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


class MiningResult:
    """Patterns produced by one miner run, with convenience accessors."""

    def __init__(self, patterns: Sequence[Pattern], min_support: int, n_rows: int):
        self.patterns = list(patterns)
        self.min_support = int(min_support)
        self.n_rows = int(n_rows)

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def as_dict(self) -> dict[tuple[int, ...], int]:
        """Mapping itemset -> support."""
        return {p.items: p.support for p in self.patterns}

    def by_length(self) -> dict[int, list[Pattern]]:
        grouped: dict[int, list[Pattern]] = {}
        for pattern in self.patterns:
            grouped.setdefault(pattern.length, []).append(pattern)
        return grouped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MiningResult(patterns={len(self.patterns)}, "
            f"min_support={self.min_support}, n_rows={self.n_rows})"
        )
