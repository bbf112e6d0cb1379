"""Differential suite: packed direct mining against the dense reference.

:func:`repro.selection.ddpmine` searches packed tidsets and scores each
node's children in one batch; ``tests/oracles/direct_dense.py`` is the
branch and bound over a dense boolean occurrence matrix, one scalar
information gain per node.  They must agree exactly — patterns, supports,
gains (float-equal), nodes explored and per-row coverage counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import TransactionDataset, load_uci
from repro.eval import stratified_kfold
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


def assert_same_run(data: TransactionDataset, **params) -> None:
    packed = run_summary(ddpmine(data, **params))
    assert packed == run_summary(direct_dense.ddpmine(data, **params))


@st.composite
def labelled_databases(draw):
    rows = draw(transactions())
    n_classes = draw(st.integers(2, 3))
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


def test_matches_dense_search_on_cleve_ablation_config():
    """The training split and parameters of the direct-mining ablation."""
    data = TransactionDataset.from_dataset(load_uci("cleve"))
    train_idx, _ = stratified_kfold(data.labels, n_folds=3, seed=0)[0]
    assert_same_run(
        data.subset(train_idx), min_support=0.08, delta=3, max_length=4
    )
