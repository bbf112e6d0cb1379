"""Differential suite: the compiled serving path must equal its references.

The featurizer's cover plan replaces per-pattern subset checks with
grouped gather + AND-reduction over packed bitsets, and the fused
decision function replaces the float64 design matrix with blocked GEMMs
over packed features.  Neither rewrite is allowed to change a single
prediction.  Hypothesis hammers both claims the same way
``test_mining_differential.py`` pins apriori == frequent_itemsets:

* **matcher oracle** — on random pattern sets and random transactions
  (including unknown item ids — negative, past the item space or past
  int64 — duplicates and empty transactions), the
  compiled and the featurizer's ``match_matrix`` equal the row-subset
  oracle (:mod:`tests.oracles.matching`) on the sanitized input, at every
  chunk size;
* **prediction oracle** — for every learner kind, the compiled form of a
  pipeline fitted on a random database, and the pipeline's own
  ``predict``, produce label arrays *identical* to the design path
  ``model_.predict(featurizer_.transform(rows))`` on random (dirty)
  request batches.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import TransactionDataset
from repro.features.pipeline import FrequentPatternClassifier
from repro.features.transformer import PatternFeaturizer
from repro.mining.itemsets import Pattern
from repro.serving import (
    CompiledModel,
    compile_model,
    sanitize_transactions,
)
from tests.oracles.matching import subset_match_matrix
from tests.serving_common import make_classifier

DIFFERENTIAL_EXAMPLES = 200
N_ITEMS = 10


def dirty_transactions():
    """Random request batches with unknown ids (negative, >= N_ITEMS, or
    beyond int64), duplicates and empty transactions — what a serving
    boundary actually receives."""
    ids = st.one_of(
        st.integers(min_value=0, max_value=N_ITEMS - 1),
        st.integers(min_value=-3, max_value=N_ITEMS + 3),
        st.sampled_from([2**63, 2**64 + 7, -(2**63) - 1, -(2**70)]),
    )
    return st.lists(st.lists(ids, max_size=8), max_size=20)


def pattern_sets():
    """Random pattern sets over the model's item space, length 0..4."""
    return st.lists(
        st.sets(
            st.integers(min_value=0, max_value=N_ITEMS - 1), max_size=4
        ).map(lambda items: Pattern(items=tuple(sorted(items)), support=1)),
        max_size=12,
        unique=True,
    )


@settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
@given(
    patterns=pattern_sets(),
    transactions=dirty_transactions(),
    chunk_rows=st.integers(min_value=1, max_value=6),
)
def test_compiled_matcher_equals_naive_subset_checks(
    patterns, transactions, chunk_rows
):
    featurizer = PatternFeaturizer(n_items=N_ITEMS, patterns=patterns)
    compiled = CompiledModel(
        featurizer, make_classifier("naive_bayes"), chunk_rows=chunk_rows
    )
    sanitized, _ = sanitize_transactions(transactions, N_ITEMS)
    expected = subset_match_matrix(sanitized, [p.items for p in patterns])
    assert np.array_equal(compiled.match_matrix(transactions), expected)
    assert np.array_equal(featurizer.match_matrix(sanitized), expected)


def training_databases():
    """Small random labelled databases the pipeline can actually fit."""
    rows = st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=N_ITEMS - 1),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=0, max_value=1),
    )
    return st.lists(rows, min_size=4, max_size=16)


def _fit_on(db, kind: str) -> FrequentPatternClassifier:
    transactions = [row for row, _ in db]
    labels = [label for _, label in db]
    data = TransactionDataset(transactions, labels, n_items=N_ITEMS)
    pipeline = FrequentPatternClassifier(
        classifier=make_classifier(kind),
        min_support=0.4,
        selection="topk",
        top_k=8,
        max_length=3,
    )
    return pipeline.fit(data)


@settings(max_examples=60, deadline=None)
@given(
    db=training_databases(),
    requests=dirty_transactions(),
    kind=st.sampled_from(("svm", "logistic", "naive_bayes", "tree")),
    chunk_rows=st.integers(min_value=1, max_value=6),
)
def test_compiled_predictions_equal_pipeline(db, requests, kind, chunk_rows):
    pipeline = _fit_on(db, kind)
    compiled = compile_model(pipeline, chunk_rows=chunk_rows)
    sanitized, _ = sanitize_transactions(requests, N_ITEMS)
    expected = pipeline.model_.predict(pipeline.featurizer_.transform(sanitized))
    got = compiled.predict(requests)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    batch = pipeline.predict(
        TransactionDataset(sanitized, [0] * len(sanitized), n_items=N_ITEMS)
    )
    assert np.array_equal(batch, expected)


@settings(max_examples=40, deadline=None)
@given(db=training_databases(), requests=dirty_transactions())
def test_compiled_probabilities_equal_model(db, requests):
    pipeline = _fit_on(db, "logistic")
    compiled = compile_model(pipeline)
    sanitized, _ = sanitize_transactions(requests, N_ITEMS)
    design = pipeline.featurizer_.transform(sanitized)
    expected = pipeline.model_.predict_proba(design)
    got = compiled.predict_proba(requests)
    assert got.shape == expected.shape
    assert np.allclose(got, expected, rtol=0, atol=1e-12)
