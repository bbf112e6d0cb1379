"""Parity suite: a categorical Dataset packs straight from its id matrix.

A row with ``k`` attributes is exactly ``k`` item ids, ``rows + offsets``
(:func:`repro.datasets.transactions.item_ids`), so one
:func:`~repro.core.bitset.pack_transactions` pass over that matrix gives
the dataset's packed item bits.  Fit (``TransactionDataset.from_dataset``
fills its item-bit cache from it) and predict (``predict``/``score`` on a
``Dataset``) both run that pass.  Hypothesis draws schemas with arity-1
attributes, request sizes around the 64-row word boundary and chunk sizes
below one word, and checks that:

* the packed words equal ``BitMatrix.vertical`` over the itemized rows,
  word for word;
* ``predict`` on a dataset equals the compiled model's labels on its
  ``TransactionDataset`` and the design path
  ``model.predict(featurizer.transform(...))``, and ``score`` equals the
  accuracy of those labels;
* a wider schema raises ``IndexError`` exactly when a row holds an id
  past the fitted item space, and a narrower schema predicts as its
  ``TransactionDataset`` does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import BitMatrix, pack_transactions
from repro.datasets import Attribute, Dataset, TransactionDataset, item_ids
from repro.features.pipeline import FrequentPatternClassifier
from repro.serving import CompiledModel
from tests.serving_common import make_classifier

#: Request sizes on both sides of the 64-row word boundary.
ROW_COUNTS = (0, 1, 63, 64, 65, 300)
TRAIN_ROWS = 24


def arities():
    """Attribute arities, arity 1 (a constant column) included."""
    return st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5)


def make_dataset(arity: list[int], n_rows: int, seed: int) -> Dataset:
    """Random rows over the schema ``arity``; the label follows attribute
    0 with some noise, so a fit finds patterns to select."""
    rng = np.random.default_rng(seed)
    rows = np.column_stack([rng.integers(0, a, n_rows) for a in arity])
    labels = (rows[:, 0] + (rng.random(n_rows) < 0.2)) % 2
    attributes = [
        Attribute(f"a{j}", tuple(f"v{v}" for v in range(a)))
        for j, a in enumerate(arity)
    ]
    return Dataset("drawn", attributes, rows, labels, class_names=("no", "yes"))


def outcome(predict, data):
    """Predicted labels as a list, or the exception type raised."""
    try:
        return predict(data).tolist()
    except Exception as exc:  # the type is the outcome under test
        return type(exc)


_fits: dict = {}


def fitted(arity: tuple[int, ...], kind: str) -> FrequentPatternClassifier:
    """A pipeline fitted on a training Dataset over ``arity``, memoized."""
    key = (arity, kind)
    if key not in _fits:
        _fits[key] = FrequentPatternClassifier(
            classifier=make_classifier(kind),
            min_support=0.3,
            selection="topk",
            top_k=8,
            max_length=3,
        ).fit(make_dataset(list(arity), TRAIN_ROWS, seed=sum(arity)))
    return _fits[key]


@settings(max_examples=200, deadline=None)
@given(
    arity=arities(),
    n_rows=st.sampled_from(ROW_COUNTS),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_dataset_packing_equals_vertical(arity, n_rows, seed):
    dataset = make_dataset(arity, n_rows, seed)
    n_items = dataset.n_items
    itemized = TransactionDataset.from_dataset(dataset)
    expected = BitMatrix.vertical(itemized.transactions, n_items)
    ids = item_ids(dataset)
    assert ids.shape == dataset.rows.shape
    assert [tuple(row) for row in ids.tolist()] == itemized.transactions
    packed, dropped = pack_transactions(ids, n_items)
    assert dropped == 0
    assert packed.n_bits == expected.n_bits == n_rows
    assert packed.words.tolist() == expected.words.tolist()
    assert itemized.item_bits().words.tolist() == expected.words.tolist()


@settings(max_examples=80, deadline=None)
@given(
    arity=arities(),
    n_rows=st.sampled_from(ROW_COUNTS),
    seed=st.integers(min_value=0, max_value=2**16),
    kind=st.sampled_from(("svm", "logistic", "naive_bayes", "tree")),
    chunk_rows=st.integers(min_value=1, max_value=63),
)
def test_predict_on_dataset_equals_design_path(arity, n_rows, seed, kind, chunk_rows):
    clf = fitted(tuple(arity), kind)
    dataset = make_dataset(arity, n_rows, seed)
    itemized = TransactionDataset.from_dataset(dataset)
    design = clf.featurizer_.transform(itemized)
    expected = np.asarray(clf.model_.predict(design), dtype=np.int32)
    assert np.array_equal(clf.compiled_.labels(itemized), expected)
    got = clf.predict(dataset)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    if n_rows:
        assert clf.score(dataset) == float((expected == dataset.labels).mean())
        assert clf.score(dataset) == clf.score(itemized)
    # Word-sliced chunks below one word read the same packed request.
    clf.compiled_ = CompiledModel(clf.featurizer_, clf.model_, chunk_rows=chunk_rows)
    try:
        assert np.array_equal(clf.predict(dataset), expected)
    finally:
        clf._compile()


@settings(max_examples=80, deadline=None)
@given(
    arity=arities(),
    n_rows=st.sampled_from(ROW_COUNTS),
    seed=st.integers(min_value=0, max_value=2**16),
    extra=st.integers(min_value=1, max_value=3),
    widen_last=st.booleans(),
)
def test_other_schemas_keep_todays_contract(arity, n_rows, seed, extra, widen_last):
    clf = fitted(tuple(arity), "svm")
    n_items = clf.featurizer_.n_items
    # Wider: a larger last domain, or extra attributes past the item space.
    wide_arity = (
        arity[:-1] + [arity[-1] + extra] if widen_last else arity + [2] * extra
    )
    wide = make_dataset(wide_arity, n_rows, seed)
    out_of_space = bool((item_ids(wide) >= n_items).any())
    got = outcome(clf.predict, wide)
    assert got == outcome(clf.compiled_.labels, TransactionDataset.from_dataset(wide))
    if out_of_space:
        assert got is IndexError
    else:
        assert isinstance(got, list)
    # Narrower: the fitted model's leading attributes, or smaller domains.
    narrow_arity = arity[:-1] if len(arity) > 1 else [max(1, arity[0] - 1)]
    narrow = make_dataset(narrow_arity, n_rows, seed)
    expected = outcome(clf.compiled_.labels, TransactionDataset.from_dataset(narrow))
    assert isinstance(expected, list)
    assert outcome(clf.predict, narrow) == expected


def test_out_of_space_id_raises_index_error():
    clf = fitted((2, 3), "svm")
    wide = make_dataset([2, 3, 2], 10, seed=1)
    with pytest.raises(IndexError):
        clf.predict(wide)
    with pytest.raises(IndexError):
        clf.score(wide)
