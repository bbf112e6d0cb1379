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

from repro.core import bitset
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


# -- the straight-line request pass --------------------------------------
#
# A request that fits in one chunk is scored in one pass over its packed
# bits: the Dataset's kept offsets, one broadcast scatter, one feature
# buffer, one unpack and one GEMM.  Longer input goes through the chunk
# loop.  Both must give the design path's labels.

#: The schema the pass tests fit on (3 + 2 + 4 = 9 items).
PASS_ARITY = (3, 2, 4)


def design_labels(clf: FrequentPatternClassifier, dataset: Dataset) -> np.ndarray:
    itemized = TransactionDataset.from_dataset(dataset)
    design = clf.featurizer_.transform(itemized)
    return np.asarray(clf.model_.predict(design), dtype=np.int32)


@pytest.mark.parametrize("kind", ("svm", "logistic", "naive_bayes", "tree"))
@pytest.mark.parametrize("n_rows", (1, 63, 64, 65))
def test_one_chunk_request_equals_design_path(kind, n_rows):
    clf = fitted(PASS_ARITY, kind)
    dataset = make_dataset(list(PASS_ARITY), n_rows, seed=n_rows)
    bits = clf.featurizer_.item_bits(dataset)
    [chunk] = clf.compiled_._item_chunks(bits)
    assert chunk is bits  # no slice, no copy
    got = clf.predict(dataset)
    assert got.dtype == np.int32
    assert np.array_equal(got, design_labels(clf, dataset))


@pytest.mark.parametrize("kind", ("svm", "logistic", "naive_bayes", "tree"))
@pytest.mark.parametrize("chunk_rows", (64, 128))
@pytest.mark.parametrize("extra", (0, 1))
def test_chunk_boundary_equals_design_path(kind, chunk_rows, extra):
    clf = fitted(PASS_ARITY, kind)
    compiled = CompiledModel(clf.featurizer_, clf.model_, chunk_rows=chunk_rows)
    n_rows = chunk_rows + extra
    dataset = make_dataset(list(PASS_ARITY), n_rows, seed=n_rows)
    bits = clf.featurizer_.item_bits(dataset)
    chunks = compiled._item_chunks(bits)
    assert len(chunks) == 1 + extra
    assert sum(chunk.n_bits for chunk in chunks) == n_rows
    assert np.array_equal(compiled.labels(dataset), design_labels(clf, dataset))
    if compiled.fused:
        # The chunk loop's scores are the one-pass scores of the same rows.
        whole = CompiledModel(clf.featurizer_, clf.model_, chunk_rows=4 * n_rows)
        assert np.allclose(
            compiled.decision_scores(bits),
            whole.decision_scores(bits),
            rtol=0,
            atol=1e-12,
        )


def test_same_width_schemas_keep_their_own_offsets():
    # Three attributes each, 7 items each, different arities: an offset
    # vector shared by attribute count would number b's items as a's.
    a = make_dataset([2, 3, 2], 40, seed=3)
    b = make_dataset([4, 1, 2], 40, seed=3)
    assert a.offsets.tolist() == [0, 2, 5]
    assert b.offsets.tolist() == [0, 4, 5]
    assert a.subset([0, 1]).offsets.tolist() == [0, 2, 5]
    clf = fitted((2, 3, 2), "svm")
    for dataset in (a, b):
        itemized = TransactionDataset.from_dataset(dataset)
        assert [tuple(r) for r in item_ids(dataset).tolist()] == itemized.transactions
        assert np.array_equal(clf.predict(dataset), clf.compiled_.labels(itemized))


@pytest.mark.parametrize("n_rows", (1, 64, 65))
def test_out_of_space_id_raises_in_the_one_pass(n_rows):
    # Fitted on arities (2, 3): 5 items.  A last attribute of arity 4 has
    # a value whose id is 5; the last row holds it, the others do not.
    clf = fitted((2, 3), "svm")
    attributes = [
        Attribute("a0", ("v0", "v1")),
        Attribute("a1", ("v0", "v1", "v2", "v3")),
    ]
    rows = np.zeros((n_rows, 2), dtype=np.int32)
    labels = np.zeros(n_rows, dtype=np.int32)
    inside = Dataset("inside", attributes, rows, labels, class_names=("no", "yes"))
    assert np.array_equal(clf.predict(inside), design_labels(clf, inside))
    rows[-1, 1] = 3
    outside = Dataset("outside", attributes, rows, labels, class_names=("no", "yes"))
    assert int(item_ids(outside).max()) == clf.featurizer_.n_items
    with pytest.raises(IndexError):
        clf.predict(outside)
    chunked = CompiledModel(clf.featurizer_, clf.model_, chunk_rows=64)
    with pytest.raises(IndexError):
        chunked.labels(outside)


# -- pack_transactions: the broadcast matrix branch == the masked rows ----

ID_DTYPES = ("int8", "int32", "int64", "uint8", "uint64")


@st.composite
def id_matrices(draw):
    """An integer id matrix and an item-space size.

    Either every id lies in the item space (the broadcast branch) or the
    ids mix in-space ones with negative ids, ids at or past ``n_items``,
    the dtype's extremes and, for uint64, ids past int64.  Small id
    ranges and a repeated column put repeated ids within rows; a strided
    view stands in for a non-contiguous matrix.
    """
    n_items = draw(st.integers(min_value=0, max_value=12))
    n_rows = draw(st.sampled_from([0, 1, 63, 64, 65]) | st.integers(0, 150))
    n_cols = draw(st.integers(min_value=0, max_value=5))
    dtype = np.dtype(draw(st.sampled_from(ID_DTYPES)))
    info = np.iinfo(dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n_items and draw(st.booleans()):
        pool = list(range(n_items))
    else:
        pool = list(range(max(info.min, -3), min(info.max, n_items + 3) + 1))
        pool += [info.min, info.max]
        if dtype == np.uint64:
            pool += [2**63, 2**63 + 1]
    picks = rng.integers(0, len(pool), size=(n_rows, n_cols))
    matrix = np.array(pool, dtype=object)[picks].astype(dtype).reshape(n_rows, n_cols)
    if n_cols and draw(st.booleans()):
        matrix = np.hstack([matrix, matrix[:, :1]])
    if draw(st.booleans()):
        matrix = np.repeat(matrix, 2, axis=1)[:, ::2]
    return matrix, n_items


@settings(max_examples=300, deadline=None)
@given(case=id_matrices(), pack_rows=st.sampled_from([16, 64, 4096]))
def test_matrix_packing_equals_row_packing(case, pack_rows):
    matrix, n_items = case
    with pytest.MonkeyPatch.context() as patch:
        # Small blocks mix in-space and masked blocks in one call.
        patch.setattr(bitset, "_PACK_ROWS", pack_rows)
        packed, dropped = pack_transactions(matrix, n_items)
        expected, expected_dropped = pack_transactions(matrix.tolist(), n_items)
    assert packed.n_bits == expected.n_bits == len(matrix)
    assert packed.words.tolist() == expected.words.tolist()
    assert dropped == expected_dropped
    assert dropped == sum(not 0 <= i < n_items for row in matrix.tolist() for i in row)
