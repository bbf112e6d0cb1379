"""Cross-validation following the paper's protocol (Section 4).

"Each dataset is partitioned into ten parts evenly.  Each time, one part is
used for test and the other nine are used for training.  We did 10-fold
cross validation on each training set and picked the best model for test.
The classification accuracies on the ten test datasets are averaged."

:func:`stratified_kfold` produces the folds; :func:`cross_validate_pipeline`
runs the outer loop for a :class:`FrequentPatternClassifier` factory; the
inner pick-the-best-model loop lives in :mod:`repro.eval.model_selection`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..core.parallel import checkpointed_map
from ..datasets.transactions import TransactionDataset
from ..features.pipeline import FrequentPatternClassifier
from ..obs import core as _obs
from .metrics import accuracy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cache import ArtifactCache

__all__ = ["stratified_kfold", "FoldScore", "CVReport", "cross_validate_pipeline"]


def stratified_kfold(
    labels: Sequence[int] | np.ndarray, n_folds: int, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold indices: list of (train_indices, test_indices).

    Every class's rows are shuffled and dealt round-robin across folds, so
    fold class distributions match the dataset's as closely as counts allow.
    Folds partition the data (disjoint, covering).
    """
    labels = np.asarray(labels)
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    if len(labels) < n_folds:
        raise ValueError(
            f"cannot make {n_folds} folds from {len(labels)} rows"
        )
    rng = np.random.default_rng(seed)
    fold_of_row = np.empty(len(labels), dtype=np.int64)
    next_fold = 0
    for class_label in np.unique(labels):
        rows = np.where(labels == class_label)[0]
        rng.shuffle(rows)
        for row in rows:
            fold_of_row[row] = next_fold
            next_fold = (next_fold + 1) % n_folds

    folds = []
    for fold in range(n_folds):
        test = np.where(fold_of_row == fold)[0]
        train = np.where(fold_of_row != fold)[0]
        folds.append((train, test))
    return folds


@dataclass(frozen=True)
class FoldScore:
    """Result of one outer fold."""

    fold: int
    accuracy: float
    n_train: int
    n_test: int
    n_selected_patterns: int


@dataclass
class CVReport:
    """Aggregated cross-validation outcome."""

    dataset: str
    model: str
    folds: list[FoldScore]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([f.accuracy for f in self.folds]))

    @property
    def std_accuracy(self) -> float:
        return float(np.std([f.accuracy for f in self.folds]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CVReport({self.dataset}/{self.model}: "
            f"{100 * self.mean_accuracy:.2f}% ± {100 * self.std_accuracy:.2f})"
        )


def cross_validate_pipeline(
    pipeline_factory: Callable[[], FrequentPatternClassifier],
    data: TransactionDataset,
    n_folds: int = 10,
    seed: int = 0,
    model_name: str = "model",
    n_jobs: int | None = 1,
    cache: "ArtifactCache | None" = None,
    run_key: str | None = None,
) -> CVReport:
    """Outer k-fold evaluation of a pipeline factory.

    The factory is invoked per fold so mining/selection never sees test
    rows.  Accuracy is averaged across folds, matching the paper's
    reporting.

    ``n_jobs`` fans the folds out over *threads* (``1`` = serial, ``-1`` =
    all CPUs): every fold gets its own pipeline instance and data subsets,
    so nothing is shared mutably, and factories may be closures (which a
    process pool could not pickle).  Fold order and scores are identical
    to the serial run.

    ``cache`` (an :class:`~repro.runtime.cache.ArtifactCache`) checkpoints
    each fold's :class:`FoldScore` under ``stage="fold"``, keyed by
    ``run_key`` (the caller's fingerprint of the data and factory
    config), ``model_name`` and the fold index.  The folds run through
    :func:`~repro.core.parallel.checkpointed_map`: a completed fold is
    persisted as it finishes and restored instead of re-evaluated on a
    resumed run.  Because a fold's outcome is fully determined by (data,
    factory config, seed), a restored score is identical to a recomputed
    one.
    """
    folds = stratified_kfold(data.labels, n_folds=n_folds, seed=seed)

    def run_fold(job: tuple[int, tuple[np.ndarray, np.ndarray]]) -> dict:
        fold_index, (train_indices, test_indices) = job
        fold_start = time.perf_counter() if _obs._ACTIVE is not None else 0.0
        with _obs.span(
            "eval.fold", fold=fold_index, model=model_name
        ) as fold_span:
            train = data.subset(train_indices)
            test = data.subset(test_indices)
            pipeline = pipeline_factory()
            pipeline.fit(train)
            predictions = pipeline.predict(test)
            score = FoldScore(
                fold=fold_index,
                accuracy=accuracy(predictions, test.labels),
                n_train=len(train_indices),
                n_test=len(test_indices),
                n_selected_patterns=len(pipeline.selected_patterns),
            )
            fold_span.set(
                accuracy=score.accuracy,
                selected_patterns=score.n_selected_patterns,
            )
        _obs.record("eval.fold_accuracy", score.accuracy)
        if _obs._ACTIVE is not None:
            _obs.observe("eval.fold.wall_s", time.perf_counter() - fold_start)
        return asdict(score)

    keys = None
    if cache is not None:
        from ..runtime.cache import fingerprint

        keys = [
            fingerprint(stage="fold", run=run_key, model=model_name, fold=i)
            for i in range(len(folds))
        ]
    with _obs.span(
        "eval.cv",
        dataset=data.name,
        model=model_name,
        folds=n_folds,
        seed=seed,
    ):
        outcomes = checkpointed_map(
            run_fold, list(enumerate(folds)), keys, cache, "fold",
            n_jobs=n_jobs, executor="thread",
        )
    scores = [FoldScore(**outcome) for outcome in outcomes]
    _obs.add("eval.folds", len(scores))
    return CVReport(dataset=data.name, model=model_name, folds=scores)
