"""Pattern types shared by all itemset miners.

A *pattern* (the paper's "combined feature", Definition 1) is a set of items
``alpha = {o_a1 .. o_ak} ⊆ I``.  Internally patterns are canonical sorted
tuples of item ids; :class:`Pattern` pairs the itemset with its absolute
support count in the dataset it was mined from.  Between mining and
selection the candidates travel as one :class:`MiningResult` table of
itemsets and per-class counts; :class:`Pattern` objects appear only at the
API edges (the selected features, JSON payloads, ``.patterns``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Literal, Sequence, get_args

import numpy as np

from ..core.bitset import class_counts
from ..obs import core as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets.transactions import TransactionDataset

__all__ = [
    "Pattern",
    "PatternBudgetExceeded",
    "canonical",
    "cap_union",
    "check_max_length",
    "check_mining_args",
    "itemset_union",
    "absolute_min_support",
    "table_min_support",
    "MinerName",
    "GuardBehavior",
    "MiningResult",
    "candidate_table",
]

#: The per-class miners of feature generation, batch and sharded.
MinerName = Literal["closed", "all"]
#: What a tripped mining guard does: propagate, or degrade to items only.
GuardBehavior = Literal["raise", "items_only"]


def canonical(items: Iterable[int]) -> tuple[int, ...]:
    """Canonical (sorted, deduplicated) tuple form of an itemset."""
    return tuple(sorted(set(int(i) for i in items)))


def check_max_length(max_length: int | None) -> None:
    """Reject a pattern-length cap below one item (``None`` means no cap)."""
    if max_length is not None and max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")


def check_mining_args(
    min_support: float,
    max_length: int | None = None,
    miner: str = "closed",
    on_guard: str = "raise",
) -> None:
    """Reject what no per-class mining run accepts: a ``min_support``
    outside (0, 1], a ``max_length`` below 1 or an unknown ``on_guard``
    (``ValueError``), or an unknown ``miner`` (``KeyError``)."""
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support is relative and must be in (0, 1]")
    if miner not in get_args(MinerName):
        raise KeyError(miner)
    check_max_length(max_length)
    if on_guard not in get_args(GuardBehavior):
        raise ValueError(f"on_guard must be 'raise' or 'items_only', got {on_guard!r}")


def absolute_min_support(min_support: float, n_rows: int) -> int:
    """``ceil(min_support * n_rows)``, at least 1: the minimum count of a
    relative ``min_support`` over ``n_rows`` rows, one integer for every
    miner that takes a relative threshold."""
    return max(1, int(-(-min_support * n_rows // 1)))


def table_min_support(min_support: float, n_rows: int) -> int:
    """A candidate table's ``min_support``: ``min_support * n_rows`` rounded."""
    return max(1, int(round(min_support * n_rows)))


def itemset_union(
    groups: Iterable[Iterable[Sequence[int]]],
) -> list[tuple[int, ...]]:
    """The union of several itemset lists as tuples, in (length, items) order.

    The per-class drivers' union step.  Itemsets may be tuples (fresh
    artifacts) or lists (artifacts restored from the cache).
    """
    # Lexicographic, then stably by length: ``(length, items)`` order
    # without a key tuple per itemset.
    union = sorted({tuple(items) for group in groups for items in group})
    union.sort(key=len)
    return union


def cap_union(
    itemsets: Sequence[tuple[int, ...]], max_patterns: int | None, on_guard: str
) -> np.ndarray:
    """Hold the merged per-class union of ``itemsets`` to the pattern budget.

    The budget bounds the *candidate feature set*, so the union across
    class partitions must honor it too.  Returns the ascending positions
    of the ``itemsets`` kept.  Over budget, ``on_guard="raise"`` raises
    :class:`PatternBudgetExceeded` with the union's size as ``emitted``;
    ``"items_only"`` warns and keeps the first ``max_patterns`` itemsets
    in canonical order instead of aborting.
    """
    n_union = len(itemsets)
    if max_patterns is None or n_union <= max_patterns:
        return np.arange(n_union)
    if on_guard == "raise":
        raise PatternBudgetExceeded(max_patterns, n_union)
    _obs.warn(
        f"merged pattern union ({n_union}) exceeds the budget of "
        f"{max_patterns}; keeping the first {max_patterns} in "
        "canonical order",
        guard="budget",
        merged=n_union,
        budget=max_patterns,
    )
    cut = sorted(range(n_union), key=itemsets.__getitem__)[:max_patterns]
    return np.sort(np.array(cut, dtype=np.intp))


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
      (the merged per-class union, :func:`cap_union`).

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

    def contains(self, other: "Pattern") -> bool:
        """True if this pattern is a superset of ``other``."""
        return set(other.items).issubset(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


class MiningResult:
    """The candidate table of one mining run.

    Row ``i`` is ``itemsets[i]``, a canonical item tuple, with absolute
    ``counts[i]``: one column per class plus the dataset's
    ``class_totals`` when counted per class (:meth:`counted`), else one
    all-rows column.  ``supports`` is the row sum, as every row of a
    dataset has one label.  :class:`Pattern` objects are built only when
    :attr:`patterns` or :meth:`pattern` is read.
    """

    def __init__(self, patterns: Sequence[Pattern], min_support: int, n_rows: int):
        patterns = list(patterns)
        self.itemsets = [p.items for p in patterns]
        self.counts = np.array([p.support for p in patterns], dtype=np.int64)[:, None]
        self.class_totals: np.ndarray | None = None
        self.min_support = int(min_support)
        self.n_rows = int(n_rows)
        self._patterns: list[Pattern] | None = patterns

    @classmethod
    def from_counts(
        cls,
        itemsets: Sequence[tuple[int, ...]],
        counts,
        min_support: int,
        n_rows: int,
        class_totals: np.ndarray | None = None,
    ) -> "MiningResult":
        """A table over canonical ``itemsets``: ``counts`` is ``(k, m)``, or
        ``k`` supports for one all-rows column."""
        table = cls([], min_support, n_rows)
        table.itemsets = list(itemsets)
        counts = np.asarray(counts, dtype=np.int64)
        table.counts = counts[:, None] if counts.ndim == 1 else counts
        table.class_totals = class_totals
        table._patterns = None
        return table

    @classmethod
    def counted(
        cls,
        itemsets: Sequence[tuple[int, ...]],
        data: "TransactionDataset",
        min_support: int = 0,
    ) -> "MiningResult":
        """``itemsets`` counted per class over ``data``: one
        :func:`~repro.core.bitset.class_counts` pass over its label masks."""
        counts = class_counts(data.item_bits(), data.label_bits().words, itemsets)
        totals = data.class_counts().astype(np.int64)
        return cls.from_counts(itemsets, counts, min_support, data.n_rows, totals)

    @property
    def supports(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def patterns(self) -> list[Pattern]:
        """The rows as :class:`Pattern` objects, built on first access."""
        if self._patterns is None:
            self._patterns = [
                Pattern(items, support)
                for items, support in zip(self.itemsets, self.supports.tolist())
            ]
        return self._patterns

    def pattern(self, index: int) -> Pattern:
        """Row ``index`` as a :class:`Pattern`, without building the rest."""
        if self._patterns is not None:
            return self._patterns[index]
        return Pattern(self.itemsets[index], int(self.counts[index].sum()))

    def take(self, indices) -> "MiningResult":
        """The rows ``indices``, in that order, as a new table."""
        indices = np.asarray(indices, dtype=np.intp)
        return MiningResult.from_counts(
            [self.itemsets[i] for i in indices.tolist()],
            self.counts[indices],
            self.min_support,
            self.n_rows,
            self.class_totals,
        )

    def __len__(self) -> int:
        return len(self.itemsets)

    def __iter__(self):
        return iter(self.patterns)

    def as_dict(self) -> dict[tuple[int, ...], int]:
        """Mapping itemset -> support."""
        return dict(zip(self.itemsets, self.supports.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MiningResult(patterns={len(self)}, "
            f"min_support={self.min_support}, n_rows={self.n_rows})"
        )


def candidate_table(
    candidates: "MiningResult | Sequence[Pattern]", data: "TransactionDataset"
) -> MiningResult:
    """``candidates`` as a table counted per class over ``data``.

    A per-class table with ``data``'s row count and class totals is taken
    as counted over ``data``.  Anything else is counted once; a list of
    :class:`Pattern` objects stays the table's patterns.
    """
    if isinstance(candidates, MiningResult):
        if (
            candidates.class_totals is not None
            and candidates.n_rows == data.n_rows
            and np.array_equal(candidates.class_totals, data.class_counts())
        ):
            return candidates
        return MiningResult.counted(candidates.itemsets, data, candidates.min_support)
    patterns = list(candidates)
    table = MiningResult.counted([p.items for p in patterns], data)
    table._patterns = patterns
    return table
