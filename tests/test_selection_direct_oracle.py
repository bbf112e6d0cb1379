"""Differential suite: packed direct mining against the dense reference.

:func:`repro.selection.ddpmine` searches packed tidsets and scores each
node's children in one batch; ``tests/oracles/direct_dense.py`` is the
branch and bound over a dense boolean occurrence matrix, one scalar
information gain and one scalar subtree bound per node.  They must agree
exactly — patterns, supports, gains (float-equal), nodes explored and
per-row coverage counts.  Against the oracle's pruning-free search, which
visits every frequent itemset, everything but the node count must agree:
a sound bound never changes the answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import TransactionDataset, load_uci
from repro.eval import stratified_kfold
from repro.measures.vectorized import _VERTEX_CLASS_CAP
from repro.selection import ddpmine
from tests.oracles import direct_dense
from tests.oracles.strategies import transactions


def run_summary(result) -> tuple:
    return (
        [(p.items, p.support) for p in result.patterns],
        result.gains,
        result.nodes_explored,
        result.coverage_counts.tolist(),
    )


def without_nodes(summary: tuple) -> tuple:
    patterns, gains, _, coverage = summary
    return patterns, gains, coverage


def assert_same_run(data: TransactionDataset, **params) -> None:
    packed = run_summary(ddpmine(data, **params))
    assert packed == run_summary(direct_dense.ddpmine(data, **params))
    exhaustive = run_summary(direct_dense.ddpmine(data, prune=False, **params))
    assert without_nodes(packed) == without_nodes(exhaustive)


@st.composite
def labelled_databases(draw, min_classes=2, max_classes=5):
    rows = draw(transactions())
    n_classes = draw(st.integers(min_classes, max_classes))
    labels = draw(
        st.lists(
            st.integers(0, n_classes - 1), min_size=len(rows), max_size=len(rows)
        )
    )
    return TransactionDataset(rows, labels, n_items=8, n_classes=n_classes)


@settings(max_examples=200, deadline=None)
@given(
    data=labelled_databases(),
    min_support=st.sampled_from([0.05, 0.1, 0.3]),
    delta=st.integers(1, 3),
    max_length=st.integers(1, 4),
)
def test_matches_dense_search(data, min_support, delta, max_length):
    assert_same_run(
        data, min_support=min_support, delta=delta, max_length=max_length
    )


def test_matches_dense_search_above_the_class_cap():
    """More classes than the vertex cap: the support-only fallback prunes."""
    rng = np.random.default_rng(0)
    n_classes = _VERTEX_CLASS_CAP + 1
    labels = rng.integers(0, n_classes, size=80)
    rows = [
        sorted({int(label) % 8, *rng.choice(8, size=3).tolist()})
        for label in labels
    ]
    data = TransactionDataset(rows, labels.tolist(), n_items=8, n_classes=n_classes)
    assert_same_run(data, min_support=0.05, delta=2, max_length=3)


def test_matches_dense_search_on_cleve_ablation_config():
    """The training split and parameters of the direct-mining ablation."""
    data = TransactionDataset.from_dataset(load_uci("cleve"))
    train_idx, _ = stratified_kfold(data.labels, n_folds=3, seed=0)[0]
    assert_same_run(
        data.subset(train_idx), min_support=0.08, delta=3, max_length=4
    )


@pytest.mark.parametrize(
    "name, first_gain", [("zoo", 0.9988), ("lymph", 0.5081)]
)
def test_multiclass_uci_matches_pruning_free_search(name, first_gain):
    """Zoo (7 classes) and lymph (4) once lost their best pattern to a
    class-pure superset bound, which is no bound beyond two classes."""
    data = TransactionDataset.from_dataset(load_uci(name, scale=0.5))
    assert_same_run(data, min_support=0.05, delta=1, max_length=3)
    assert ddpmine(
        data, min_support=0.05, delta=1, max_length=3
    ).gains[0] == pytest.approx(first_gain, abs=1e-4)
