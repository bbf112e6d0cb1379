"""Differential suite: one packing pass equals sanitize-then-pack.

The serving boundary turns raw item ids into packed item bits with
:func:`repro.core.bitset.pack_transactions`: one flattening of the ids,
one mask of the ids outside ``[0, n_items)`` (their count is the dropped
count) and one ``np.bitwise_or.at`` scatter.  Its reference is the row
form it replaced, :func:`repro.serving.sanitize_transactions` followed
by :meth:`BitMatrix.vertical <repro.core.bitset.BitMatrix.vertical>`.
Hypothesis feeds both the ids a client can send: negative ids, ids that
int64 cannot hold, floats, bools, numpy integers, digit strings and
empty rows.  Packed words and dropped counts must be equal, and an input
that makes the reference raise must make the pass raise the same type.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitset
from repro.core.bitset import BitMatrix, pack_transactions
from repro.serving import ServingFrontend, compile_model, sanitize_transactions
from tests.serving_common import fitted_pipeline

INGESTION_EXAMPLES = 300

#: Ids a well-formed client sends, in and around a small item space.
_near = st.integers(min_value=-3, max_value=12)
#: Ids no int64 can hold, on both sides.
_huge = st.integers(min_value=2**63, max_value=2**70) | st.integers(
    min_value=-(2**70), max_value=-(2**63) - 1
)
#: Everything else ``int()`` accepts, which the pass must convert alike.
_convertible = st.one_of(
    st.floats(min_value=-4.0, max_value=14.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.integers(min_value=-128, max_value=127).map(np.int8),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=-3, max_value=2**66).map(str),
    st.integers(min_value=0, max_value=12).map(lambda i: f" {i}\n"),
)
#: Ids ``int()`` refuses (ValueError, TypeError) or cannot represent
#: (OverflowError).
_raising = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), None, "x", "3.0", "", 1j]
)


def requests(ids):
    return st.lists(st.lists(ids, max_size=8), max_size=12)


def clean_ids():
    return st.one_of(_near, _huge, _convertible)


def outcome(ingest, transactions, n_items):
    """``(words, n_bits, dropped)``, or the exception type raised."""
    try:
        item_bits, dropped = ingest(transactions, n_items)
    except Exception as exc:  # the type is the outcome under test
        return type(exc)
    return item_bits.words.tolist(), item_bits.n_bits, dropped


def sanitize_then_pack(transactions, n_items):
    cleaned, dropped = sanitize_transactions(transactions, n_items)
    return BitMatrix.vertical(cleaned, n_items), dropped


def assert_same_ingestion(transactions, n_items):
    expected = outcome(sanitize_then_pack, transactions, n_items)
    got = outcome(pack_transactions, transactions, n_items)
    assert got == expected


@settings(max_examples=INGESTION_EXAMPLES, deadline=None)
@given(transactions=requests(clean_ids()), n_items=st.integers(0, 10))
def test_packed_bits_and_drops_equal_sanitize_then_pack(transactions, n_items):
    assert_same_ingestion(transactions, n_items)


@settings(max_examples=INGESTION_EXAMPLES, deadline=None)
@given(
    transactions=requests(clean_ids() | _raising),
    n_items=st.integers(1, 10),
)
def test_raising_inputs_raise_the_same_type(transactions, n_items):
    assert_same_ingestion(transactions, n_items)


@settings(max_examples=100, deadline=None)
@given(transactions=requests(clean_ids()), n_items=st.integers(1, 10))
def test_blocks_are_invisible(transactions, n_items):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitset, "_PACK_ROWS", 3)
        assert_same_ingestion(transactions, n_items)


@pytest.mark.parametrize(
    "row, dropped",
    [
        ((2**63, 1), 1),
        ((-(2**63) - 1, 1, 1), 1),
        ((np.uint64(2**64 - 1), 2.9, True), 1),
        (("18446744073709551616", " 2 ", np.int8(-1)), 2),
        ((1e19, -1e30, 0), 2),
    ],
)
def test_ids_beyond_int64_are_dropped(row, dropped):
    """The overflow fallback: ids that int64 cannot hold are unknown ids."""
    item_bits, got = pack_transactions([row, ()], 4)
    assert got == dropped
    assert sanitize_transactions([row, ()], 4)[1] == dropped
    assert item_bits.n_bits == 2
    assert not item_bits.to_dense()[:, 1].any()


@pytest.mark.parametrize("bad", [float("nan"), None, "x", float("inf")])
def test_a_raising_id_fails_only_its_own_request(bad):
    pipeline, _ = fitted_pipeline("svm")
    compiled = compile_model(pipeline)
    with ServingFrontend(compiled, n_workers=1) as frontend:
        failing = frontend.submit([(0, 1), (2, bad)])
        ok = frontend.submit([(0, 1, compiled.n_items + 5)])
        with pytest.raises(outcome(sanitize_then_pack, [(bad,)], 4)):
            failing.result(timeout=30)
        assert np.array_equal(ok.result(timeout=30), compiled.predict([(0, 1)]))
    stats = frontend.stats()
    assert stats["errors"] == 1
    assert stats["dropped_unknown_items"] == 1


def test_request_longer_than_a_chunk_matches_its_chunks():
    """Packing blocks and scoring chunks both split a long request; the
    labels and the dropped count equal those of its chunks sent alone."""
    pipeline, data = fitted_pipeline("logistic")
    compiled = compile_model(pipeline, chunk_rows=64)
    rows = [
        row + (compiled.n_items + i,)
        for i, row in enumerate(data.transactions[:200])
    ]
    chunks = [rows[start : start + 64] for start in range(0, len(rows), 64)]
    expected = np.concatenate([compiled.predict(chunk) for chunk in chunks])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitset, "_PACK_ROWS", 50)
        assert np.array_equal(compiled.predict(rows), expected)
        with ServingFrontend(compiled, n_workers=1) as frontend:
            assert np.array_equal(frontend.predict(rows), expected)
    assert frontend.stats()["dropped_unknown_items"] == len(rows)


def test_item_bits_over_another_item_space_are_rejected():
    pipeline, _ = fitted_pipeline("svm")
    compiled = compile_model(pipeline)
    item_bits, _ = pack_transactions([(0,)], compiled.n_items + 1)
    with pytest.raises(ValueError, match="item masks"):
        compiled.predict(item_bits)
