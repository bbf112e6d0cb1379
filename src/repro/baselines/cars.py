"""Class association rules (CARs): the substrate of CBA/CMAR/HARMONY.

A CAR is ``antecedent (itemset) -> class`` with a support and a confidence.
Rules are mined per class partition with the package's closed miner and
scored by the mined table's per-class counts over the full training set —
the same pattern machinery the main framework uses, reused for the
associative-classification baselines the paper compares against
(Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bitset import pattern_covers, unpack_bits
from ..datasets.transactions import TransactionDataset
from ..mining.generation import mine_class_patterns

__all__ = ["ClassAssociationRule", "mine_cars", "rule_matches"]


@dataclass(frozen=True)
class ClassAssociationRule:
    """One rule ``antecedent -> label``.

    ``support`` is the absolute count of rows containing the antecedent
    *with* the rule's label (rule support in CBA's sense); ``coverage`` is
    the count of rows containing the antecedent regardless of label;
    ``confidence = support / coverage``.
    """

    antecedent: tuple[int, ...]
    label: int
    support: int
    coverage: int

    @property
    def confidence(self) -> float:
        return self.support / self.coverage if self.coverage else 0.0

    @property
    def length(self) -> int:
        return len(self.antecedent)

    def matches(self, transaction: tuple[int, ...]) -> bool:
        return set(self.antecedent).issubset(transaction)


def rule_matches(
    rules: list[ClassAssociationRule], data: TransactionDataset
) -> np.ndarray:
    """Boolean matrix (n_rules, n_rows): rule antecedent ⊆ transaction.

    An empty antecedent matches every row.
    """
    result = np.empty((len(rules), data.n_rows), dtype=bool)
    antecedents = [rule.antecedent for rule in rules]
    for start, covers in pattern_covers(data.item_bits(), antecedents):
        result[start : start + len(covers)] = unpack_bits(covers, data.n_rows)
    return result


def mine_cars(
    data: TransactionDataset,
    min_support: float = 0.05,
    min_confidence: float = 0.6,
    max_length: int | None = 5,
    min_length: int = 1,
    max_patterns: int | None = 200_000,
) -> list[ClassAssociationRule]:
    """Mine class association rules from labelled transactions.

    Frequent closed antecedents are mined per class partition at the
    relative ``min_support``; each antecedent yields one rule per class it
    is sufficiently confident for.  Rules are returned sorted by CBA's
    total order: confidence desc, support desc, antecedent length asc.
    """
    if not 0.0 < min_confidence <= 1.0:
        raise ValueError("min_confidence must be in (0, 1]")
    mined = mine_class_patterns(
        data,
        min_support=min_support,
        miner="closed",
        min_length=min_length,
        max_length=max_length,
        max_patterns=max_patterns,
    )
    rules: list[ClassAssociationRule] = []
    for antecedent, counts in zip(mined.itemsets, mined.counts.tolist()):
        coverage = sum(counts)
        if coverage == 0:
            continue
        for label, count in enumerate(counts):
            if count == 0:
                continue
            if count / coverage >= min_confidence:
                rules.append(
                    ClassAssociationRule(
                        antecedent=antecedent,
                        label=label,
                        support=int(count),
                        coverage=int(coverage),
                    )
                )
    rules.sort(key=lambda r: (-r.confidence, -r.support, r.length, r.antecedent))
    return rules
