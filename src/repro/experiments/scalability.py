"""Driver for Tables 3-5: scalability of mining + selection vs. min_sup.

For each support threshold the driver reports, like the paper:

* ``#Patterns`` — closed patterns mined (merged over class partitions);
* ``Time (s)`` — pattern mining plus MMRFS feature selection;
* ``SVM (%)`` / ``C4.5 (%)`` — holdout accuracy of Pat_FS models built on
  those patterns.

The ``min_sup = 1`` row is run under a pattern budget: when enumeration
blows past it, the row is reported infeasible ("N/A" in the paper), which is
exactly the paper's observation that full enumeration "cannot complete in
days" / yields millions of patterns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..classifiers.decision_tree import DecisionTree
from ..classifiers.linear_svm import LinearSVM
from ..datasets.transactions import TransactionDataset
from ..eval.cross_validation import stratified_kfold
from ..features.transformer import PatternFeaturizer
from ..mining.generation import mine_class_patterns
from ..mining.itemsets import MiningResult, PatternBudgetExceeded
from ..selection.mmrfs import mmrfs

__all__ = [
    "SCALABILITY_GRIDS",
    "ScalabilityRow",
    "ScalabilityTable",
    "grid_supports",
    "run_scalability_table",
]

#: Tables 3-5: table number -> (dataset, min_sup grid).  The grid holds
#: the paper's absolute thresholds as fractions of the dataset's rows, so
#: a scaled-down dataset keeps the same relative sweep.
SCALABILITY_GRIDS: dict[int, tuple[str, tuple[float, ...]]] = {
    3: ("chess", (0.94, 0.88, 0.78, 0.69, 0.63)),
    4: ("waveform", (0.04, 0.03, 0.02, 0.016)),
    5: ("letter", (0.225, 0.2, 0.175, 0.15)),
}


def grid_supports(table: int, n_rows: int) -> list[int]:
    """Table ``table``'s min_sup grid as absolute supports over ``n_rows``
    rows (never below 2; the guarded ``min_sup = 1`` row is separate)."""
    _, grid = SCALABILITY_GRIDS[table]
    return [max(2, int(r * n_rows)) for r in grid]


@dataclass
class ScalabilityRow:
    """One line of a Table 3-5 style report."""

    min_support: int
    feasible: bool
    n_patterns: int
    time_seconds: float
    svm_accuracy: float | None
    c45_accuracy: float | None

    def render(self) -> str:
        if not self.feasible:
            return (
                f"{self.min_support:>8d}  {'>' + str(self.n_patterns):>12s}"
                f"  {'N/A':>9s}  {'N/A':>7s}  {'N/A':>7s}"
            )
        svm = f"{self.svm_accuracy:7.2f}" if self.svm_accuracy is not None else "    N/A"
        c45 = f"{self.c45_accuracy:7.2f}" if self.c45_accuracy is not None else "    N/A"
        return (
            f"{self.min_support:>8d}  {self.n_patterns:>12d}"
            f"  {self.time_seconds:9.3f}  {svm}  {c45}"
        )


@dataclass
class ScalabilityTable:
    title: str
    rows: list[ScalabilityRow]

    def render(self) -> str:
        header = (
            f"{'min_sup':>8s}  {'#Patterns':>12s}  {'Time (s)':>9s}"
            f"  {'SVM (%)':>7s}  {'C4.5(%)':>7s}"
        )
        return "\n".join(
            [self.title, header, "-" * len(header)]
            + [row.render() for row in self.rows]
        )


def _holdout_accuracy(
    data: TransactionDataset,
    mined: MiningResult,
    seed: int,
) -> tuple[float, float]:
    """Pat_FS holdout accuracy with SVM and C4.5 on given mined patterns."""
    folds = stratified_kfold(data.labels, n_folds=3, seed=seed)
    train_indices, test_indices = folds[0][0], folds[0][1]
    train = data.subset(train_indices)
    test = data.subset(test_indices)

    selection = mmrfs(MiningResult.counted(mined.itemsets, train), train, delta=3)
    featurizer = PatternFeaturizer(
        n_items=data.n_items, patterns=selection.patterns
    )
    design_train = featurizer.transform(train)
    design_test = featurizer.transform(test)

    svm = LinearSVM().fit(design_train, train.labels)
    tree = DecisionTree().fit(design_train, train.labels)
    svm_accuracy = float((svm.predict(design_test) == test.labels).mean())
    c45_accuracy = float((tree.predict(design_test) == test.labels).mean())
    return 100.0 * svm_accuracy, 100.0 * c45_accuracy


def run_scalability_table(
    data: TransactionDataset,
    absolute_supports: list[int],
    title: str = "",
    max_length: int | None = 4,
    pattern_budget: int = 300_000,
    include_minsup_one: bool = True,
    with_accuracy: bool = True,
    seed: int = 0,
) -> ScalabilityTable:
    """Reproduce one of Tables 3-5 on a transaction dataset.

    Parameters
    ----------
    absolute_supports:
        Whole-dataset absolute min_sup values (the paper's convention),
        converted internally to relative in-class thresholds.
    pattern_budget:
        Enumeration budget for the guarded ``min_sup = 1`` row and for all
        listed thresholds (blow-ups are reported, never raised).
    max_length:
        Length cap for the listed thresholds.  The min_sup = 1 row always
        runs uncapped — that is the enumeration the paper calls infeasible.
    """
    rows: list[ScalabilityRow] = []
    supports = sorted(set(absolute_supports), reverse=True)
    if include_minsup_one:
        supports = supports + [1]

    for absolute in supports:
        relative = max(absolute / data.n_rows, 1.0 / data.n_rows)
        start = time.perf_counter()
        try:
            mined = mine_class_patterns(
                data,
                min_support=relative,
                miner="closed",
                max_length=None if absolute == 1 else max_length,
                max_patterns=pattern_budget,
            )
        except PatternBudgetExceeded as exc:
            elapsed = time.perf_counter() - start
            rows.append(
                ScalabilityRow(
                    min_support=absolute,
                    feasible=False,
                    n_patterns=exc.emitted,
                    time_seconds=elapsed,
                    svm_accuracy=None,
                    c45_accuracy=None,
                )
            )
            continue

        selection = mmrfs(mined, data, delta=3)
        elapsed = time.perf_counter() - start

        svm_accuracy = c45_accuracy = None
        if with_accuracy:
            svm_accuracy, c45_accuracy = _holdout_accuracy(data, mined, seed=seed)
        rows.append(
            ScalabilityRow(
                min_support=absolute,
                feasible=True,
                n_patterns=len(mined),
                time_seconds=elapsed,
                svm_accuracy=svm_accuracy,
                c45_accuracy=c45_accuracy,
            )
        )
        del selection
    return ScalabilityTable(title=title, rows=rows)
