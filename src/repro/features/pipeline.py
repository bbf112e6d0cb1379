"""The end-to-end frequent pattern-based classifier (paper Section 3).

Chains the framework's three steps behind one fit/predict interface:

1. **feature generation** — mine frequent (closed) patterns per class
   partition at ``min_support`` (or at the theory-derived theta* when
   ``min_support="auto"``);
2. **feature selection** — MMRFS (or a top-k / no-op variant for
   ablations);
3. **model learning** — any :class:`~repro.classifiers.base.Classifier`
   on the ``I ∪ Fs`` feature space.

The five model configurations of Tables 1-2 are all expressible:

=============  =====================================================
Paper name     Construction
=============  =====================================================
Item_All       ``FrequentPatternClassifier(use_patterns=False)``
Item_FS        ``use_patterns=False, select_items=True``
Pat_All        ``selection="none"``
Pat_FS         defaults (closed mining + MMRFS)
Item_RBF       ``use_patterns=False`` + ``KernelSVM(kernel="rbf")``
=============  =====================================================
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..classifiers.base import Classifier
from ..classifiers.linear_svm import LinearSVM
from ..datasets.schema import Dataset
from ..datasets.transactions import TransactionDataset
from ..measures.contingency import ContingencyTables
from ..measures.vectorized import information_gain_batch
from ..mining.generation import mine_class_patterns
from ..mining.itemsets import MiningResult, Pattern
from ..obs import core as _obs
from ..selection.minsup import suggest_min_support
from ..selection.mmrfs import SelectionResult, mmrfs, top_k_by_relevance
from .transformer import PatternFeaturizer

__all__ = ["FrequentPatternClassifier"]

SelectionName = Literal["mmrfs", "topk", "none"]


class FrequentPatternClassifier:
    """Frequent pattern-based classification, end to end.

    Parameters
    ----------
    classifier:
        The learning algorithm; cloned (never mutated) at fit time.
        Defaults to a linear SVM, the paper's primary model.
    min_support:
        Relative in-class support threshold theta_0, or ``"auto"`` to derive
        theta* from ``ig0`` via the Section 3.2 strategy.
    ig0:
        Information-gain filter threshold used when ``min_support="auto"``.
    miner:
        ``"closed"`` (paper default, via the FPClose-role miner) or
        ``"all"``.
    selection:
        ``"mmrfs"`` (Algorithm 1), ``"topk"`` (pure relevance ranking), or
        ``"none"`` (keep every mined pattern — the paper's Pat_All).
    relevance:
        Relevance measure for selection: ``"information_gain"`` or
        ``"fisher"``.
    delta:
        MMRFS database-coverage threshold.
    top_k:
        Pattern count for ``selection="topk"``.
    use_patterns:
        When False, skips mining entirely (single-feature models).
    select_items:
        When True, single items are also filtered by information gain,
        keeping the ``item_fs_fraction`` best — the paper's Item_FS.
    max_length, max_patterns:
        Safety caps forwarded to the miner.
    classifier_candidates:
        Optional list of zero-argument classifier factories.  When given,
        the learner is chosen by inner cross-validation on the training
        split — the paper's "did 10-fold cross validation on each training
        set and picked the best model" — and ``classifier`` is ignored.
    inner_folds:
        Inner CV folds for candidate selection.
    n_jobs:
        Class partitions to mine concurrently during feature generation
        (``1`` = serial, ``-1`` = all CPUs); forwarded to
        :func:`~repro.mining.generation.mine_class_patterns`.  The fitted
        model is independent of ``n_jobs``.
    on_guard:
        ``"raise"`` (default) propagates mining guard trips
        (:class:`~repro.mining.itemsets.PatternBudgetExceeded`, time
        limit); ``"items_only"`` degrades the tripping class partition to
        items-only features — a fit that would have aborted instead
        produces a model whose feature space simply lacks that
        partition's patterns (with a warning event).

    Notes
    -----
    The candidates stay one counted table from mining to selection, and
    :class:`Pattern` objects are built only for the selected features.
    Every support/coverage computation of fit shares the training set's
    cached packed occurrence structure
    (:meth:`~repro.datasets.transactions.TransactionDataset.item_bits`),
    built once per fit rather than once per stage.
    """

    def __init__(
        self,
        classifier: Classifier | None = None,
        min_support: float | str = 0.1,
        ig0: float = 0.05,
        miner: str = "closed",
        selection: SelectionName = "mmrfs",
        relevance: str = "information_gain",
        delta: int = 3,
        top_k: int = 100,
        use_patterns: bool = True,
        select_items: bool = False,
        item_fs_fraction: float = 0.5,
        max_length: int | None = 5,
        max_patterns: int | None = 200_000,
        max_candidates: int | None = 20_000,
        classifier_candidates: list | None = None,
        inner_folds: int = 3,
        n_jobs: int | None = 1,
        on_guard: str = "raise",
    ) -> None:
        self.classifier = classifier if classifier is not None else LinearSVM()
        self.min_support = min_support
        self.ig0 = ig0
        self.miner = miner
        self.selection = selection
        self.relevance = relevance
        self.delta = delta
        self.top_k = top_k
        self.use_patterns = use_patterns
        self.select_items = select_items
        self.item_fs_fraction = item_fs_fraction
        self.max_length = max_length
        self.max_patterns = max_patterns
        self.max_candidates = max_candidates
        self.classifier_candidates = classifier_candidates
        self.inner_folds = inner_folds
        self.n_jobs = n_jobs
        self.on_guard = on_guard

        self.model_: Classifier | None = None
        self.candidate_scores_: list = []
        self.featurizer_: PatternFeaturizer | None = None
        self._candidates: MiningResult | None = None
        self.selection_result_: SelectionResult | None = None
        self.resolved_min_support_: float | None = None
        self.compiled_ = None
        self._fitted = False

    # ------------------------------------------------------------------
    @staticmethod
    def _as_transactions(data: Dataset | TransactionDataset) -> TransactionDataset:
        if isinstance(data, TransactionDataset):
            return data
        return TransactionDataset.from_dataset(data)

    def _resolve_min_support(self, data: TransactionDataset) -> float:
        if self.min_support == "auto":
            suggestion = suggest_min_support(data.labels, self.ig0)
            # theta* can be arbitrarily small on skewed data; keep a floor so
            # mining stays tractable.
            return max(suggestion.theta, 1.0 / max(1, data.n_rows))
        value = float(self.min_support)
        if not 0.0 < value <= 1.0:
            raise ValueError("min_support must be in (0, 1] or 'auto'")
        return value

    @property
    def item_mask_(self) -> np.ndarray | None:
        """The Item_FS mask over single items (None keeps them all)."""
        return None if self.featurizer_ is None else self.featurizer_.item_mask

    @property
    def mined_patterns_(self) -> list[Pattern]:
        """The candidates selection ran over (after the cap), as patterns."""
        return [] if self._candidates is None else self._candidates.patterns

    def _select(self, data: TransactionDataset) -> list[Pattern]:
        if self.selection == "none":
            self.selection_result_ = None
            return self.mined_patterns_
        if self.selection == "mmrfs":
            result = mmrfs(
                self._candidates,
                data,
                relevance=self.relevance,
                delta=self.delta,
            )
        elif self.selection == "topk":
            result = top_k_by_relevance(
                self._candidates, data, k=self.top_k, relevance=self.relevance
            )
        else:
            raise ValueError(f"unknown selection {self.selection!r}")
        self.selection_result_ = result
        return result.patterns

    def _cap_candidates(self, mined: MiningResult) -> MiningResult:
        """Keep the ``max_candidates`` rows of highest information gain.

        Dense data can mine six figures of closed patterns; the cap keeps
        MMRFS tractable but can change the selection: on perfbench's
        chess training rows the capped run selects 105 patterns (held-out
        accuracy 0.9327), the uncapped run 113 (0.9280).  It ranks by
        information gain whatever ``relevance`` is.  ROADMAP.md's "Make
        the candidate cap exact" would remove both effects.
        """
        if self.max_candidates is None or len(mined) <= self.max_candidates:
            return mined
        tables = ContingencyTables.of(mined)
        gains = information_gain_batch(tables.present, tables.absent)
        keep = np.argsort(-gains, kind="stable")[: self.max_candidates]
        return mined.take(np.sort(keep))

    def _item_selection_mask(self, data: TransactionDataset) -> np.ndarray | None:
        """IG-based filter over single items (the Item_FS variant)."""
        if not self.select_items:
            return None
        singles = MiningResult.counted([(i,) for i in range(data.n_items)], data)
        tables = ContingencyTables.of(singles)
        gains = information_gain_batch(tables.present, tables.absent)
        keep = max(1, int(round(self.item_fs_fraction * data.n_items)))
        threshold_value = np.sort(gains)[::-1][keep - 1]
        return gains >= threshold_value

    # ------------------------------------------------------------------
    def fit(self, data: Dataset | TransactionDataset) -> "FrequentPatternClassifier":
        """Run feature generation, selection and model learning."""
        transactions = self._as_transactions(data)

        with _obs.span(
            "pipeline.fit", dataset=transactions.name, rows=transactions.n_rows
        ) as fit_span:
            selected: list[Pattern] = []
            if self.use_patterns:
                self.resolved_min_support_ = self._resolve_min_support(transactions)
                mined = mine_class_patterns(
                    transactions,
                    min_support=self.resolved_min_support_,
                    miner=self.miner,
                    max_length=self.max_length,
                    max_patterns=self.max_patterns,
                    n_jobs=self.n_jobs,
                    on_guard=self.on_guard,
                )
                with _obs.span("pipeline.cap", candidates=len(mined)) as cap_span:
                    self._candidates = self._cap_candidates(mined)
                    cap_span.set(kept=len(self._candidates))
                with _obs.span("pipeline.select", strategy=self.selection):
                    selected = self._select(transactions)
            else:
                self.resolved_min_support_ = None
                self._candidates = None

            self.featurizer_ = PatternFeaturizer(
                n_items=transactions.n_items,
                patterns=selected,
                item_mask=self._item_selection_mask(transactions),
            )
            design = self.featurizer_.transform(transactions)

            with _obs.span(
                "pipeline.learn",
                features=design.shape[1],
                model=type(self.classifier).__name__,
            ):
                if self.classifier_candidates:
                    from ..eval.model_selection import select_best_classifier

                    self.model_, self.candidate_scores_ = select_best_classifier(
                        self.classifier_candidates,
                        design,
                        transactions.labels,
                        n_folds=self.inner_folds,
                    )
                else:
                    self.candidate_scores_ = []
                    self.model_ = self.classifier.clone()
                    self.model_.fit(design, transactions.labels)
            fit_span.set(mined=len(self._candidates or ()), selected=len(selected))
        self._compile()
        return self

    def _compile(self) -> None:
        """Freeze ``featurizer_`` and ``model_`` into the model ``predict``
        runs; the last step of ``fit`` and of loading a saved pipeline."""
        from ..serving.compiled import CompiledModel

        self.compiled_ = CompiledModel(self.featurizer_, self.model_)
        self._fitted = True

    # ------------------------------------------------------------------
    def predict(self, data: Dataset | TransactionDataset) -> np.ndarray:
        """Predicted labels; an item outside the fitted item space raises
        ``IndexError`` (the serving entry drops such items instead).

        A categorical ``Dataset`` is packed straight from its id matrix
        (``rows + offsets``) in one
        :func:`~repro.core.bitset.pack_transactions` pass, the pass that
        fills a training set's item bits; no item catalog, transaction
        dataset or row tuple is built.  A ``TransactionDataset`` brings
        its cached item bits.  See :meth:`CompiledModel.labels
        <repro.serving.compiled.CompiledModel.labels>`.

        Reassigning ``featurizer_`` or ``model_`` recompiles on the next
        call; mutating either in place is not seen and needs a refit.
        """
        if not self._fitted:
            raise RuntimeError("fit must be called before predict")
        compiled = self.compiled_
        if (
            compiled.featurizer is not self.featurizer_
            or compiled.model is not self.model_
        ):
            self._compile()
        with _obs.span("pipeline.predict", rows=data.n_rows):
            return self.compiled_.labels(data)

    def score(self, data: Dataset | TransactionDataset) -> float:
        """Mean accuracy on a labelled dataset, predicted as :meth:`predict`
        does (a ``Dataset`` through its id matrix)."""
        return float((self.predict(data) == data.labels).mean())

    # ------------------------------------------------------------------
    @property
    def selected_patterns(self) -> list[Pattern]:
        """The patterns the classifier actually uses (Fs)."""
        if self.featurizer_ is None:
            return []
        return list(self.featurizer_.patterns)

    def describe_features(self, catalog=None) -> list[str]:
        """Names of all model features, rendered via the item catalog."""
        if self.featurizer_ is None:
            return []
        return self.featurizer_.feature_names(catalog)
