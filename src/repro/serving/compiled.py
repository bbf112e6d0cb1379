"""Compiled pattern classifier: one featurizer plus a fused decision function.

:func:`compile_model` pairs a fitted pipeline's
:class:`~repro.features.transformer.PatternFeaturizer` (the ``I ∪ Fs``
layout: kept item columns and the patterns' cover plan) with its learner
in a :class:`CompiledModel`.  ``FrequentPatternClassifier.predict`` runs
the one it compiles at the end of ``fit``; the serving frontend runs one
loaded from the registry.

* **fused decision function** — LinearSVM, LogisticRegression and
  BernoulliNaiveBayes are linear in the binary design, so compile time
  extracts one ``(n_features + 1, n_outputs)`` coefficient matrix whose
  last row is the intercept, and predict scores the packed features in
  cache-blocked GEMMs, never materializing the float64 design of a long
  chunk.  Other learners (DecisionTree) predict on the exact design,
  ``model.predict(featurizer.transform(rows))``.
* **bounded batching** — the batch is processed ``chunk_rows`` rows at a
  time, so a million-row request streams through a fixed-size working
  set.  A request that fits in one chunk is one straight-line pass over
  its packed bits: the design words into one buffer, one unpack, one
  GEMM, the tie check and the label map.

Two entries, two ingestion rules.  :meth:`CompiledModel.predict` is the
serving boundary: one :func:`~repro.core.bitset.pack_transactions` pass
turns the raw item ids into packed item bits and drops and counts the
ids outside the item space, and the call records ``serving.*``
telemetry.  Both entries also take item bits packed beforehand (the
serving frontend packs each request itself, to attribute its dropped
count).  :meth:`CompiledModel.labels` is the batch entry: a categorical
``Dataset`` is packed straight from its id matrix in the same one
``pack_transactions`` pass, a ``TransactionDataset`` was validated when
it was built, so its cached item bits are read as they are, and an item
outside the item space raises ``IndexError``.
``tests/test_serving_differential.py`` pins the matcher to a row-subset
oracle and the labels *exactly* to the design path.

Thread safety: a ``CompiledModel`` is immutable after construction (all
state is read-only numpy arrays), so one instance can serve concurrent
requests from any number of threads — the property the serving frontend
(:mod:`repro.serving.frontend`) relies on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..classifiers.base import Classifier
from ..classifiers.linear_svm import LinearSVM
from ..classifiers.logistic import LogisticRegression
from ..classifiers.naive_bayes import BernoulliNaiveBayes
from ..core.bitset import WORD_BITS, BitMatrix, pack_transactions, unpack_bits
from ..datasets.schema import Dataset
from ..datasets.transactions import TransactionDataset
from ..features.transformer import PatternFeaturizer
from ..mining.itemsets import Pattern
from ..obs import core as _obs

if TYPE_CHECKING:
    from ..features.pipeline import FrequentPatternClassifier

__all__ = [
    "CompiledModel",
    "compile_model",
    "sanitize_transactions",
]

#: Rows per matcher chunk: bounds the match-matrix working set at
#: ``chunk_rows * n_patterns`` bytes (bool) while keeping each GEMM large
#: enough to amortize dispatch.
DEFAULT_CHUNK_ROWS = 2048

Transactions = Sequence[Sequence[int]]

_ALL_ONES = ~np.uint64(0)


def sanitize_transactions(
    transactions: Transactions, n_items: int
) -> tuple[list[tuple[int, ...]], int]:
    """Serving-boundary ingestion as tuples: canonical rows + dropped count.

    Every transaction becomes a sorted, deduplicated tuple of item ids in
    ``[0, n_items)``; ids outside the model's item space (unknown
    vocabulary) are dropped and counted.  Duplicates are *not* counted as
    drops — set semantics are the matcher's contract either way.  The
    serving path packs with :func:`~repro.core.bitset.pack_transactions`
    instead, which keeps these semantics; this row form is the reference
    the tests compare it with.
    """
    cleaned: list[tuple[int, ...]] = []
    dropped = 0
    for transaction in transactions:
        ids = set()
        for item in transaction:
            item = int(item)
            if 0 <= item < n_items:
                ids.add(item)
            else:
                dropped += 1
        cleaned.append(tuple(sorted(ids)))
    return cleaned, dropped


def _as_transaction_list(data: Any) -> list:
    if isinstance(data, TransactionDataset):
        return list(data.transactions)
    return list(data)


def _n_rows(data: Dataset | TransactionDataset | BitMatrix | list) -> int:
    if isinstance(data, BitMatrix):
        return data.n_bits
    return len(data)


class _FusedLinear:
    """``scores = X @ coef + intercept`` extracted from a linear learner.

    ``coef`` rows follow the featurizer's design layout, and its last row
    is the intercept: the weight of an always-one feature that ends every
    design the head scores, so the GEMM adds it.  ``scale`` bounds
    the sum of the absolute terms of one score in the learner's own
    arithmetic.  Summed in any order, ``n`` terms round by at most
    ``n * eps / 2 * scale`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, §4.2), so the fused score and the learner's differ
    by less than ``tie_tolerance / 4``, and a label decided by a margin
    wider than ``tie_tolerance`` is the learner's label.
    """

    __slots__ = ("coef", "kind", "tie_tolerance")

    #: Byte budget of the float64 cast of one GEMM block: a 2048-row chunk
    #: casts 256 features at a time, so the cast stays cache-resident
    #: instead of round-tripping a rows x features float64 matrix through
    #: DRAM (the cast, not the GEMM, dominates at 10k patterns otherwise),
    #: and a request of a few rows casts its whole design for one GEMM.
    _CAST_BYTES = 4 << 20

    def __init__(
        self, coef: np.ndarray, intercept: np.ndarray, kind: str, scale: float
    ) -> None:
        self.coef = np.vstack([coef, intercept]).astype(np.float64)
        self.kind = kind
        # Naive Bayes sums two terms per feature plus the prior; the
        # other learners one term per feature plus the bias.
        n_terms = 2 * len(coef) + 2
        self.tie_tolerance = 4 * n_terms * np.finfo(np.float64).eps * max(scale, 1.0)

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Decision scores for one chunk.

        ``features`` is the chunk's boolean design followed by a row of
        ones, feature-major — (n_features + 1, rows), the orientation the
        bit-unpacker produces without a strided copy.  The float64 cast
        happens ``_CAST_BYTES`` at a time; the cast keeps the transposed
        layout, so each partial GEMM absorbs the transpose (``A.T @ B`` is
        a dgemm flag, not a copy) and the full float64 design of a long
        chunk never exists.
        """
        block = max(1, self._CAST_BYTES // (8 * max(1, features.shape[1])))
        out = features[:block].T.astype(np.float64) @ self.coef[:block]
        for start in range(block, features.shape[0], block):
            stop = start + block
            out += features[start:stop].T.astype(np.float64) @ self.coef[start:stop]
        return out


def _extract_fused(model: Classifier) -> _FusedLinear | None:
    """The linear (coef, intercept) form of a supported learner, else None."""
    if isinstance(model, (LinearSVM, LogisticRegression)):
        weights = model.weights_
        if weights is None:  # unfitted: matcher-only use
            return None
        if model.fit_bias:
            coef, intercept = weights[:, :-1], weights[:, -1]
        else:
            coef, intercept = weights, np.zeros(weights.shape[0])
        kind = "linear_svm" if isinstance(model, LinearSVM) else "logistic"
        scale = float(np.abs(weights).sum(axis=1).max())
        return _FusedLinear(coef.T, intercept, kind, scale)
    if isinstance(model, BernoulliNaiveBayes) and model.log_theta_ is not None:
        if not 0.0 <= model.binarize < 1.0:
            # A threshold outside [0, 1) re-maps the 0/1 design; only the
            # identity binarization is linear in the design itself.
            return None
        # Bernoulli NB is linear in binary features:
        #   score_c = sum_f x_f log(theta) + (1 - x_f) log(1 - theta) + prior
        #           = x @ (log theta - log(1-theta)).T
        #             + [sum_f log(1-theta) + prior]
        log_theta, log_rest = model.log_theta_, model.log_one_minus_theta_
        intercept = log_rest.sum(axis=1) + model.log_prior_
        scale = float(
            (
                np.abs(log_theta).sum(axis=1)
                + np.abs(log_rest).sum(axis=1)
                + np.abs(model.log_prior_)
            ).max()
        )
        return _FusedLinear((log_theta - log_rest).T, intercept, "naive_bayes", scale)
    return None


class CompiledModel:
    """A pattern classifier compiled for low-latency batch prediction.

    A :class:`~repro.features.transformer.PatternFeaturizer` (the item
    mask and the patterns' cover plan) plus the fused linear head of the
    learner.  Construct via :func:`compile_model`; instances are immutable
    and thread-safe.  The public surface mirrors the pipeline it was
    compiled from: :meth:`predict`, :meth:`predict_proba`,
    :meth:`decision_scores` plus the raw :meth:`match_matrix` the
    differential suite pins.
    """

    def __init__(
        self,
        featurizer: PatternFeaturizer,
        model: Classifier,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.featurizer = featurizer
        self.model = model
        self.chunk_rows = int(chunk_rows)
        self._fused = _extract_fused(model)
        if self._fused is not None:
            # The label of each score column, as the labels are returned.
            self._classes = np.asarray(model.classes_, dtype=np.int32)

    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        return self.featurizer.n_items

    @property
    def patterns(self) -> tuple[Pattern, ...]:
        return self.featurizer.patterns

    @property
    def n_patterns(self) -> int:
        return len(self.featurizer.patterns)

    @property
    def n_features(self) -> int:
        """Design width the wrapped learner was trained on."""
        return self.featurizer.n_features

    @property
    def fused(self) -> bool:
        """True when the decision function is compiled (no design matrix)."""
        return self._fused is not None

    def describe(self) -> dict[str, Any]:
        """Summary used by the registry and ``repro models list``."""
        return {
            "n_items": self.n_items,
            "n_patterns": self.n_patterns,
            "n_features": self.n_features,
            "model": type(self.model).__name__,
            "fused": self.fused,
        }

    # ------------------------------------------------------------------
    def _item_chunks(self, item_bits: BitMatrix) -> list[BitMatrix]:
        """``item_bits`` in chunks of at most ``chunk_rows`` rows.

        A request that fits in one chunk is its own chunk, with no copy.
        Longer input is sliced in whole 64-row words, so a ``chunk_rows``
        below 64 still reads one word.
        """
        words = item_bits.words
        step = max(1, self.chunk_rows // WORD_BITS)
        if words.shape[1] <= step:
            return [item_bits]
        return [
            BitMatrix(
                words[:, start : start + step],
                min(item_bits.n_bits, (start + step) * WORD_BITS) - start * WORD_BITS,
            )
            for start in range(0, words.shape[1], step)
        ]

    def _ingest(
        self, data: Transactions | TransactionDataset | BitMatrix, sanitize: bool
    ) -> tuple[TransactionDataset | BitMatrix | list, int]:
        """``data`` and its dropped-id count: rows packed by
        :func:`~repro.core.bitset.pack_transactions` when ``sanitize``,
        packed bits as they are, and otherwise the dataset (whose cached
        item bits :meth:`_item_chunks` reads) or a row list that
        :meth:`_item_chunks` packs and validates."""
        if isinstance(data, BitMatrix) or (
            not sanitize and isinstance(data, TransactionDataset)
        ):
            return data, 0
        transactions = _as_transaction_list(data)
        if not sanitize:
            return transactions, 0
        return pack_transactions(transactions, self.n_items)

    def match_matrix(
        self, transactions: Transactions | BitMatrix, sanitize: bool = True
    ) -> np.ndarray:
        """Boolean (n_rows, n_patterns) pattern-presence matrix.

        :meth:`PatternFeaturizer.match_matrix
        <repro.features.transformer.PatternFeaturizer.match_matrix>` of the
        sanitized transactions, computed ``chunk_rows`` rows at a time.
        """
        data, _ = self._ingest(transactions, sanitize)
        blocks = [
            self.featurizer.pattern_bits(chunk).to_dense().T
            for chunk in self._item_chunks(self.featurizer.item_bits(data))
        ]
        if len(blocks) == 1:
            # A transposed view of the pattern-major unpack, no copy for
            # single-chunk batches.
            return blocks[0]
        return np.concatenate(blocks, axis=0)

    # -- prediction ----------------------------------------------------
    def _chunk_scores(self, chunk: BitMatrix) -> np.ndarray:
        """Fused decision scores of one chunk of packed item bits.

        The featurizer writes the chunk's design words into one buffer
        whose last row is all ones, the intercept's feature; one unpack
        and the head's GEMM score it.  The ones row's bits past the
        chunk's rows are never unpacked.
        """
        words = np.empty(
            (self.n_features + 1, chunk.words.shape[1]), dtype=chunk.words.dtype
        )
        self.featurizer.feature_words(chunk, words[:-1])
        words[-1] = _ALL_ONES
        return self._fused.scores(unpack_bits(words, chunk.n_bits))

    def _scores(self, item_bits: BitMatrix) -> np.ndarray:
        """Fused decision scores, one chunk of packed features at a time."""
        assert self._fused is not None
        chunks = self._item_chunks(item_bits)
        if len(chunks) == 1:
            return self._chunk_scores(chunks[0])
        return np.concatenate([self._chunk_scores(chunk) for chunk in chunks])

    def decision_scores(self, transactions: Transactions | BitMatrix) -> np.ndarray:
        """Per-class decision scores (rows, n_outputs), float64.

        Fused single pass for linear learners; raises ``TypeError`` for
        learners without a compiled decision function.
        """
        if self._fused is None:
            raise TypeError(
                f"{type(self.model).__name__} has no fused decision function"
            )
        data, _ = self._ingest(transactions, sanitize=True)
        return self._scores(self.featurizer.item_bits(data))

    def _predict_from_scores(self, scores: np.ndarray) -> np.ndarray:
        """Label mapping replicating each learner's own argmax conventions."""
        classes = self._classes
        if len(classes) == 1:
            return np.full(len(scores), classes[0], dtype=np.int32)
        if self._fused.kind == "linear_svm" and scores.shape[1] == 1:
            # Binary SVM: one margin column, sign decides.
            return classes[(scores[:, 0] > 0).astype(np.intp)]
        if self._fused.kind == "logistic":
            # LogisticRegression argmaxes over the softmax probabilities,
            # not the raw scores; replicate the exact transform so rounding
            # ties resolve to the same index.
            from ..classifiers.logistic import _softmax

            scores = _softmax(scores)
        return classes[np.argmax(scores, axis=1)]

    def _near_tie(self, scores: np.ndarray) -> bool:
        """True when some row's label hangs on the rounding of its scores."""
        if len(self._classes) == 1:
            return False
        if scores.shape[1] == 1:  # binary SVM: the margin's sign decides
            gaps = np.abs(scores[:, 0])
        else:
            top = np.partition(scores, -2, axis=1)
            gaps = top[:, -1] - top[:, -2]
        return bool(np.count_nonzero(gaps <= self._fused.tie_tolerance))

    def labels(
        self, data: Dataset | TransactionDataset | BitMatrix | Transactions
    ) -> np.ndarray:
        """Predicted labels of rows already in the model's item space.

        The batch entry: nothing is sanitized (an item outside
        ``[0, n_items)`` raises ``IndexError``) and no ``serving.*``
        telemetry is recorded.  ``data`` is packed once, by
        :meth:`PatternFeaturizer.item_bits
        <repro.features.transformer.PatternFeaturizer.item_bits>`: a
        categorical ``Dataset`` straight from its id matrix, a
        ``TransactionDataset`` from its cached bits, a transaction list
        from its rows; packed item bits pass as they are.  The labels are
        those of the design path,
        ``model.predict(featurizer.transform(data))``.  Linear learners
        get them from the fused head; when a row's scores are within
        rounding of a tie, or the learner is not linear, the design path
        itself runs on the same packed bits.
        """
        if not isinstance(data, (Dataset, TransactionDataset, BitMatrix, list)):
            data = list(data)
        if _n_rows(data) == 0:
            return np.empty(0, dtype=np.int32)
        item_bits = self.featurizer.item_bits(data)
        if self._fused is not None:
            scores = self._scores(item_bits)
            if not self._near_tie(scores):
                return self._predict_from_scores(scores)
        design = self.featurizer.transform(item_bits)
        return np.asarray(self.model.predict(design), dtype=np.int32)

    def predict(
        self, transactions: Transactions | BitMatrix, sanitize: bool = True
    ) -> np.ndarray:
        """Predicted labels at the serving boundary.

        Unknown item ids are dropped and counted (see
        :func:`~repro.core.bitset.pack_transactions`), and the call
        records a ``serving.predict`` span.  Item bits packed beforehand
        pass as they are; the serving frontend packs each request itself,
        to attribute its dropped-item count.  ``sanitize`` applies to row
        input only: rows with ``sanitize=False`` must already lie in the
        item space (an unknown item raises ``IndexError``).
        """
        data, dropped = self._ingest(transactions, sanitize)
        n_rows = _n_rows(data)
        with _obs.span(
            "serving.predict", rows=n_rows, patterns=self.n_patterns
        ) as predict_span:
            if dropped:
                _obs.add("serving.unknown_items_dropped", dropped)
            _obs.add("serving.rows_predicted", n_rows)
            labels = self.labels(data)
            predict_span.set(fused=self.fused)
            return labels

    def predict_proba(self, transactions: Transactions) -> np.ndarray:
        """Per-class probabilities (rows, n_classes).

        Supported for learners that define probabilities: softmax scores
        for LogisticRegression, normalized posteriors for
        BernoulliNaiveBayes.  Raises ``TypeError`` otherwise (an SVM
        margin is not a probability).
        """
        if self._fused is None or self._fused.kind == "linear_svm":
            raise TypeError(
                f"{type(self.model).__name__} does not define "
                "class probabilities"
            )
        scores = self.decision_scores(transactions)
        if scores.shape[1] == 1:
            return np.ones((len(scores), 1), dtype=np.float64)
        from ..classifiers.logistic import _softmax

        return _softmax(scores)


def compile_model(
    pipeline: FrequentPatternClassifier,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> CompiledModel:
    """Compile a fitted pipeline into a :class:`CompiledModel`."""
    if not pipeline._fitted:
        raise ValueError("only fitted pipelines can be compiled")
    assert pipeline.featurizer_ is not None and pipeline.model_ is not None
    return CompiledModel(pipeline.featurizer_, pipeline.model_, chunk_rows)
