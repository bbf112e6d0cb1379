"""Dense MMRFS: Algorithm 1 as one Python round per candidate.

The reference the packed, epoch-scanning loop in
:mod:`repro.selection.mmrfs` is tested against.  Coverage is a boolean
``(n_candidates, n_rows)`` matrix; every round recomputes all gains, takes
the argmax and accepts or rejects that one candidate.  The redundancy
arithmetic is the same as :func:`~repro.selection.redundancy.
batch_redundancy_packed`'s, so the two agree float for float.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.transactions import TransactionDataset
from repro.measures.contingency import batch_contingency_tables
from repro.mining.itemsets import Pattern
from repro.selection.mmrfs import SelectedFeature, SelectionResult
from repro.selection.relevance import RelevanceMeasure, batch_relevance, get_relevance
from tests.oracles.direct_dense import occurrence_matrix


def batch_redundancy(
    coverage: np.ndarray,
    supports: np.ndarray,
    relevances: np.ndarray,
    new_coverage: np.ndarray,
    new_support: int,
    new_relevance: float,
) -> np.ndarray:
    """R(alpha_k, beta) for every candidate alpha_k against one pattern beta.

    ``coverage`` is the boolean (n_candidates, n_rows) matrix of candidate
    coverage masks; ``new_*`` describe beta.
    """
    if new_support == 0:
        return np.zeros(len(supports), dtype=float)
    joint = coverage[:, new_coverage].sum(axis=1).astype(float)
    union = supports.astype(float) + float(new_support) - joint
    with np.errstate(divide="ignore", invalid="ignore"):
        jaccard_values = np.where(union > 0, joint / union, 0.0)
    return jaccard_values * np.minimum(relevances, new_relevance)


@dataclass
class DenseRun:
    """The dense loop's choices and counters."""

    coverage_counts: np.ndarray
    chosen: list[int] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    covered_rows: list[int] = field(default_factory=list)
    rounds: int = 0
    rejected: int = 0


def dense_greedy(
    coverage: np.ndarray,
    correct: np.ndarray,
    supports: np.ndarray,
    relevances: np.ndarray,
    delta: int,
    max_selected: int | None,
) -> DenseRun:
    """The greedy loop, one argmax over every candidate per round."""
    n_candidates, n_rows = coverage.shape
    run = DenseRun(coverage_counts=np.zeros(n_rows, dtype=np.int64))
    if not n_candidates:
        return run
    max_redundancy = np.zeros(n_candidates, dtype=float)
    available = np.ones(n_candidates, dtype=bool)

    def select(index: int, gain: float) -> None:
        available[index] = False
        run.coverage_counts[correct[index]] += 1
        run.chosen.append(index)
        run.gains.append(float(gain))
        run.covered_rows.append(int((run.coverage_counts >= delta).sum()))
        np.maximum(
            max_redundancy,
            batch_redundancy(
                coverage,
                supports,
                relevances,
                coverage[index],
                int(supports[index]),
                float(relevances[index]),
            ),
            out=max_redundancy,
        )

    first = int(np.argmax(relevances))
    select(first, gain=float(relevances[first]))
    while True:
        if max_selected is not None and len(run.chosen) >= max_selected:
            break
        if (run.coverage_counts >= delta).all():
            break
        if not available.any():
            break
        run.rounds += 1
        gains = np.where(available, relevances - max_redundancy, -np.inf)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]):
            break
        if (correct[best] & (run.coverage_counts < delta)).any():
            select(best, gain=float(gains[best]))
        else:
            available[best] = False
            run.rejected += 1
    return run


def mmrfs_dense(
    patterns: list[Pattern],
    data: TransactionDataset,
    relevance: str | RelevanceMeasure = "information_gain",
    delta: int = 1,
    max_selected: int | None = None,
) -> tuple[SelectionResult, DenseRun]:
    """:func:`repro.selection.mmrfs.mmrfs` on boolean coverage matrices."""
    score = get_relevance(relevance)
    if not patterns:
        empty = np.zeros(data.n_rows, dtype=np.int64)
        return (
            SelectionResult(selected=[], coverage_counts=empty, delta=delta, considered=0),
            DenseRun(coverage_counts=empty),
        )
    tables = batch_contingency_tables(patterns, data)
    relevances = batch_relevance(score, tables)
    majority = tables.majority_classes()
    matrix = occurrence_matrix(data.transactions, n_items=data.n_items)
    coverage = np.stack(
        [
            matrix[:, list(p.items)].all(axis=1)
            if p.items
            else np.ones(data.n_rows, dtype=bool)
            for p in patterns
        ]
    )
    correct = coverage & (majority[:, np.newaxis] == data.labels)
    run = dense_greedy(
        coverage, correct, tables.supports, relevances, delta, max_selected
    )
    selected = [
        SelectedFeature(
            pattern=patterns[index],
            relevance=float(relevances[index]),
            gain=gain,
            majority_class=int(majority[index]),
            order=order,
        )
        for order, (index, gain) in enumerate(zip(run.chosen, run.gains))
    ]
    result = SelectionResult(
        selected=selected,
        coverage_counts=run.coverage_counts,
        delta=delta,
        considered=len(patterns),
    )
    return result, run
