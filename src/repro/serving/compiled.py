"""Compiled pattern matcher + fused decision function for serving.

A fitted :class:`~repro.features.pipeline.FrequentPatternClassifier`
answers ``predict`` by rebuilding the full ``I ∪ Fs`` float64 design
matrix — one Python-level AND-reduction per pattern, an unpack of every
bit to a float64 cell, and a generic ``model.predict`` over the result.
Fine for an offline experiment, hopeless for a serving hot path with a
10k-pattern model.

:func:`compile_model` freezes the same fitted state into a
:class:`CompiledModel` whose hot path removes all three costs:

* **item-indexed matcher** — at compile time the pattern set is grouped
  by length into index tables over the item space (the inverted-list
  view: pattern ``j`` is the list of item tidsets it probes).  At predict
  time the incoming batch is packed once into vertical item bitsets
  (:class:`~repro.core.bitset.BitMatrix`), and *every* pattern's coverage
  mask is produced by one vectorized gather + AND-reduction per length
  group — no per-pattern Python loop, no per-pattern subset check.
* **fused decision function** — LinearSVM, LogisticRegression and
  BernoulliNaiveBayes are all linear in the binary design, so compile
  time extracts a single ``(n_features, n_outputs)`` coefficient matrix
  plus intercept and predict computes scores straight from the packed
  match matrix in cache-blocked GEMMs, never materializing the float64
  design.
  Non-linear learners (DecisionTree) fall back to assembling the exact
  design and delegating — correct, just not fused.
* **single-pass batching** — the batch is processed in bounded row
  chunks, so a million-row request streams through a fixed-size working
  set instead of allocating rows × features floats.

Ingestion is defensive: transactions arriving at a serving boundary may
contain unknown item ids (a vocabulary drifted upstream) or duplicates.
:func:`sanitize_transactions` drops out-of-range ids and deduplicates;
``CompiledModel.predict`` applies it by default.  The differential suite
(``tests/test_serving_differential.py``) pins the compiled matcher and
predictions *exactly* to the naive transformer path on the sanitized
input, hypothesis-hammered the same way the miner differential suite
pins the all-itemset miner to its Apriori reference.

Thread safety: a ``CompiledModel`` is immutable after construction (all
state is read-only numpy arrays), so one instance can serve concurrent
requests from any number of threads — the property the serving frontend
(:mod:`repro.serving.frontend`) relies on.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..classifiers.base import Classifier
from ..classifiers.linear_svm import LinearSVM
from ..classifiers.logistic import LogisticRegression
from ..classifiers.naive_bayes import BernoulliNaiveBayes
from ..core.bitset import BitMatrix, packed_ones, unpack_bits
from ..datasets.transactions import TransactionDataset
from ..features.pipeline import FrequentPatternClassifier
from ..mining.itemsets import Pattern
from ..obs import core as _obs

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


def sanitize_transactions(
    transactions: Transactions, n_items: int
) -> tuple[list[tuple[int, ...]], int]:
    """Serving-boundary ingestion: canonical transactions + dropped count.

    Every transaction becomes a sorted, deduplicated tuple of item ids in
    ``[0, n_items)``; ids outside the model's item space (unknown
    vocabulary) are dropped and counted.  Duplicates are *not* counted as
    drops — set semantics are the matcher's contract either way.
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


class _FusedLinear:
    """``scores = X @ coef + intercept`` extracted from a linear learner.

    ``coef`` rows follow the pipeline's design layout: the kept item
    columns first (item-mask already applied), then one row per pattern.
    """

    __slots__ = ("coef_items", "coef_patterns", "intercept", "kind")

    def __init__(
        self,
        coef: np.ndarray,
        intercept: np.ndarray,
        n_item_columns: int,
        kind: str,
    ) -> None:
        coef = np.ascontiguousarray(coef, dtype=np.float64)
        self.coef_items = coef[:n_item_columns]
        self.coef_patterns = np.ascontiguousarray(coef[n_item_columns:])
        self.intercept = np.asarray(intercept, dtype=np.float64)
        self.kind = kind

    #: Features cast to float64 per GEMM block; bounds the cast buffer at
    #: ``_CAST_BLOCK * chunk_rows * 8`` bytes so it stays cache-resident
    #: instead of round-tripping a rows x features float64 matrix through
    #: DRAM (the cast, not the GEMM, dominates at 10k patterns otherwise).
    _CAST_BLOCK = 256

    def scores(self, items_b: np.ndarray, matches_b: np.ndarray) -> np.ndarray:
        """Decision scores for one chunk.

        Blocks arrive feature-major and *boolean* — ``items_b`` is the
        contiguous (kept_items, rows) presence block, ``matches_b`` the
        contiguous (n_patterns, rows) match block — the orientation the
        bit-unpacker produces without a strided copy.  The float64 cast
        happens ``_CAST_BLOCK`` features at a time into a reused buffer,
        and each partial GEMM absorbs the transpose (``A.T @ B`` is a
        dgemm flag, not a copy), so the full float64 design never exists.
        """
        rows = matches_b.shape[1] if matches_b.shape[0] else items_b.shape[1]
        out = np.broadcast_to(
            self.intercept, (rows, self.intercept.shape[0])
        ).copy()
        if self.coef_items.shape[0]:
            out += items_b.T @ self.coef_items
        n_patterns = self.coef_patterns.shape[0]
        if n_patterns:
            block = min(self._CAST_BLOCK, n_patterns)
            buffer = np.empty((block, rows), dtype=np.float64)
            for start in range(0, n_patterns, block):
                stop = min(start + block, n_patterns)
                chunk = buffer[: stop - start]
                chunk[...] = matches_b[start:stop]
                out += chunk.T @ self.coef_patterns[start:stop]
        return out


def _extract_fused(model: Classifier, n_item_columns: int) -> _FusedLinear | None:
    """The linear (coef, intercept) form of a supported learner, else None."""
    if isinstance(model, (LinearSVM, LogisticRegression)):
        if model.weights_ is None:  # unfitted: matcher-only use
            return None
    if isinstance(model, BernoulliNaiveBayes) and model.log_theta_ is None:
        return None
    if isinstance(model, LinearSVM):
        weights = model.weights_
        if model.fit_bias:
            coef, intercept = weights[:, :-1], weights[:, -1]
        else:
            coef, intercept = weights, np.zeros(weights.shape[0])
        return _FusedLinear(coef.T, intercept, n_item_columns, "linear_svm")
    if isinstance(model, LogisticRegression):
        weights = model.weights_
        if model.fit_bias:
            coef, intercept = weights[:, :-1], weights[:, -1]
        else:
            coef, intercept = weights, np.zeros(weights.shape[0])
        return _FusedLinear(coef.T, intercept, n_item_columns, "logistic")
    if isinstance(model, BernoulliNaiveBayes):
        if not 0.0 <= model.binarize < 1.0:
            # A threshold outside [0, 1) re-maps the 0/1 design; only the
            # identity binarization is linear in the design itself.
            return None
        # Bernoulli NB is linear in binary features:
        #   score_c = sum_f x_f log(theta) + (1 - x_f) log(1 - theta) + prior
        #           = x @ (log theta - log(1-theta)).T
        #             + [sum_f log(1-theta) + prior]
        coef = (model.log_theta_ - model.log_one_minus_theta_).T
        intercept = model.log_one_minus_theta_.sum(axis=1) + model.log_prior_
        return _FusedLinear(coef, intercept, n_item_columns, "naive_bayes")
    return None


class CompiledModel:
    """A pattern classifier compiled for low-latency batch prediction.

    Construct via :func:`compile_model`; instances are immutable and
    thread-safe.  The public surface mirrors the pipeline it was compiled
    from: :meth:`predict`, :meth:`predict_proba`, :meth:`decision_scores`
    plus the raw :meth:`match_matrix` the differential suite pins.
    """

    def __init__(
        self,
        n_items: int,
        patterns: Sequence[Pattern],
        include_items: bool,
        item_mask: np.ndarray | None,
        model: Classifier,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if n_items < 0:
            raise ValueError("n_items must be >= 0")
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.n_items = int(n_items)
        self.patterns = tuple(patterns)
        self.include_items = bool(include_items)
        self.chunk_rows = int(chunk_rows)
        self.model = model
        for pattern in self.patterns:
            if pattern.items and (
                pattern.items[0] < 0 or pattern.items[-1] >= self.n_items
            ):
                raise ValueError(
                    f"pattern {pattern.items} has items outside "
                    f"[0, {self.n_items}) and can never match"
                )

        if item_mask is not None:
            item_mask = np.asarray(item_mask, dtype=bool)
            if item_mask.shape != (self.n_items,):
                raise ValueError(
                    f"item_mask must have shape ({self.n_items},), "
                    f"got {item_mask.shape}"
                )
        self.item_mask = item_mask
        # Design layout: kept item columns (all items when unmasked,
        # none when include_items is False), then one column per pattern.
        if not self.include_items:
            self._kept_items = np.empty(0, dtype=np.intp)
        elif item_mask is None:
            self._kept_items = np.arange(self.n_items, dtype=np.intp)
        else:
            self._kept_items = np.where(item_mask)[0].astype(np.intp)

        # The item-indexed matcher tables: patterns grouped by length,
        # each group one (group_size, length) gather index into the
        # vertical item bitsets.  Group order is by ascending length;
        # positions map results back to pattern columns.
        groups: dict[int, list[int]] = {}
        for j, pattern in enumerate(self.patterns):
            groups.setdefault(len(pattern.items), []).append(j)
        self._groups: list[tuple[np.ndarray, np.ndarray]] = []
        self._empty_pattern_columns = np.asarray(
            groups.pop(0, []), dtype=np.intp
        )
        for length in sorted(groups):
            columns = np.asarray(groups[length], dtype=np.intp)
            gather = np.asarray(
                [self.patterns[j].items for j in columns], dtype=np.intp
            )
            self._groups.append((columns, gather))

        self._fused = _extract_fused(model, len(self._kept_items))

    # ------------------------------------------------------------------
    @property
    def n_patterns(self) -> int:
        return len(self.patterns)

    @property
    def n_features(self) -> int:
        """Design width the wrapped learner was trained on."""
        return len(self._kept_items) + len(self.patterns)

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

    # -- matcher -------------------------------------------------------
    def _match_bits_chunk(self, item_bits: BitMatrix) -> np.ndarray:
        """Packed coverage masks (n_patterns, n_words) for one chunk."""
        words = np.empty(
            (self.n_patterns, item_bits.words.shape[1]),
            dtype=item_bits.words.dtype,
        )
        if self._empty_pattern_columns.size:
            words[self._empty_pattern_columns] = packed_ones(item_bits.n_bits)
        for columns, gather in self._groups:
            if gather.shape[1] == 1:
                words[columns] = item_bits.words[gather[:, 0]]
            else:
                words[columns] = np.bitwise_and.reduce(
                    item_bits.words[gather], axis=1
                )
        return words

    def _chunks(self, transactions: list) -> list[list]:
        return [
            transactions[start : start + self.chunk_rows]
            for start in range(0, len(transactions), self.chunk_rows)
        ]

    def match_matrix(
        self, transactions: Transactions, sanitize: bool = True
    ) -> np.ndarray:
        """Boolean (n_rows, n_patterns) pattern-presence matrix.

        Semantically identical to
        :meth:`repro.features.transformer.PatternFeaturizer.match_matrix`
        on the sanitized transactions — the contract the differential
        suite enforces.
        """
        transactions = _as_transaction_list(transactions)
        if sanitize:
            transactions, _ = sanitize_transactions(transactions, self.n_items)
        blocks = []
        for chunk in self._chunks(transactions):
            item_bits = BitMatrix.vertical(chunk, self.n_items)
            words = self._match_bits_chunk(item_bits)
            blocks.append(unpack_bits(words, len(chunk)).T)
        if not blocks:
            return np.zeros((0, self.n_patterns), dtype=bool)
        if len(blocks) == 1:
            # Same contract as the naive transformer: a transposed view of
            # the pattern-major unpack, no copy for single-chunk batches.
            return blocks[0]
        return np.concatenate(blocks, axis=0)

    # -- prediction ----------------------------------------------------
    def _chunk_blocks(
        self, chunk: list
    ) -> tuple[np.ndarray, np.ndarray]:
        """(kept-item block, match block) of one chunk, both boolean.

        Blocks stay feature-major — (kept_items, rows) and (n_patterns,
        rows) — matching the unpacker's native orientation, and stay
        boolean: the float64 cast is deferred to the consumer
        (:meth:`_FusedLinear.scores` casts blockwise through a
        cache-resident buffer; the design fallback casts on assignment),
        so no rows x features float64 matrix is ever materialized here.
        """
        item_bits = BitMatrix.vertical(chunk, self.n_items)
        if self._kept_items.size:
            items_b = unpack_bits(
                item_bits.words[self._kept_items], len(chunk)
            )
        else:
            items_b = np.zeros((0, len(chunk)), dtype=bool)
        if self.n_patterns:
            words = self._match_bits_chunk(item_bits)
            matches_b = unpack_bits(words, len(chunk))
        else:
            matches_b = np.zeros((0, len(chunk)), dtype=bool)
        return items_b, matches_b

    def _design(self, transactions: list) -> np.ndarray:
        """The exact float64 design matrix (fallback / oracle path)."""
        design = np.empty((len(transactions), self.n_features), dtype=np.float64)
        offset = 0
        for chunk in self._chunks(transactions):
            items_b, matches_b = self._chunk_blocks(chunk)
            rows = slice(offset, offset + len(chunk))
            design[rows, : items_b.shape[0]] = items_b.T
            design[rows, items_b.shape[0] :] = matches_b.T
            offset += len(chunk)
        return design

    def decision_scores(self, transactions: Transactions) -> np.ndarray:
        """Per-class decision scores (rows, n_outputs), float64.

        Fused single pass for linear learners; raises ``TypeError`` for
        learners without a compiled decision function.
        """
        if self._fused is None:
            raise TypeError(
                f"{type(self.model).__name__} has no fused decision function"
            )
        transactions = _as_transaction_list(transactions)
        transactions, _ = sanitize_transactions(transactions, self.n_items)
        out = np.empty(
            (len(transactions), self._fused.intercept.shape[0]),
            dtype=np.float64,
        )
        offset = 0
        for chunk in self._chunks(transactions):
            items_b, matches_b = self._chunk_blocks(chunk)
            out[offset : offset + len(chunk)] = self._fused.scores(
                items_b, matches_b
            )
            offset += len(chunk)
        return out

    def _predict_from_scores(self, scores: np.ndarray) -> np.ndarray:
        """Label mapping replicating each learner's own argmax conventions."""
        classes = self.model.classes_
        assert classes is not None
        if len(classes) == 1:
            return np.full(len(scores), classes[0], dtype=np.int32)
        if self._fused.kind == "linear_svm" and scores.shape[1] == 1:
            # Binary SVM: one margin column, sign decides.
            chosen = (scores[:, 0] > 0).astype(int)
            return classes[chosen].astype(np.int32)
        if self._fused.kind == "logistic":
            # LogisticRegression argmaxes over the softmax probabilities,
            # not the raw scores; replicate the exact transform so rounding
            # ties resolve to the same index.
            from ..classifiers.logistic import _softmax

            scores = _softmax(scores)
        return classes[np.argmax(scores, axis=1)].astype(np.int32)

    def predict(
        self, transactions: Transactions, sanitize: bool = True
    ) -> np.ndarray:
        """Predicted labels, identical to the source pipeline's predict.

        ``sanitize=False`` skips the ingestion pass for callers that
        already ran :func:`sanitize_transactions` (the serving frontend
        does, to attribute the dropped-item count per request).
        """
        transactions = _as_transaction_list(transactions)
        if sanitize:
            sanitized, dropped = sanitize_transactions(
                transactions, self.n_items
            )
        else:
            sanitized, dropped = transactions, 0
        with _obs.span(
            "serving.predict", rows=len(sanitized), patterns=self.n_patterns
        ) as predict_span:
            if dropped:
                _obs.add("serving.unknown_items_dropped", dropped)
            _obs.add("serving.rows_predicted", len(sanitized))
            if len(sanitized) == 0:
                return np.empty(0, dtype=np.int32)
            if self._fused is not None:
                scores = np.empty(
                    (len(sanitized), self._fused.intercept.shape[0]),
                    dtype=np.float64,
                )
                offset = 0
                for chunk in self._chunks(sanitized):
                    items_b, matches_b = self._chunk_blocks(chunk)
                    scores[offset : offset + len(chunk)] = self._fused.scores(
                        items_b, matches_b
                    )
                    offset += len(chunk)
                labels = self._predict_from_scores(scores)
            else:
                labels = self.model.predict(self._design(sanitized))
                labels = np.asarray(labels, dtype=np.int32)
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
    featurizer = pipeline.featurizer_
    return CompiledModel(
        n_items=featurizer.n_items,
        patterns=featurizer.patterns,
        include_items=featurizer.include_items,
        item_mask=pipeline.item_mask_,
        model=pipeline.model_,
        chunk_rows=chunk_rows,
    )
