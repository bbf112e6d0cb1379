"""Property suite: stream checkpoints hold a shard's packed words.

A sealed shard's payload is ``{"epoch", "n_rows", "words"}``: the base64
text of the shard's item words then label words, the byte layout of an
out-of-core shard file (``core/shards.py``, format v1).  Restoring it
must give back the shard the window held: the same canonical rows and
labels and the same words, with the verticals seeded from the payload
rather than packed again.  Payloads in the row form (``transactions`` /
``labels``) that checkpoints held before still restore, to the same
state.  A malformed words payload raises ``ValueError`` at restore.

Dimensions cross word boundaries: 1 to 70 items, 1 to 4 classes and
shards of 0 to 130 rows.
"""

from __future__ import annotations

import base64
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import unpack_bits
from repro.core.shards import ShardSet, ShardWriter, decode_shard_words
from repro.runtime.cache import canonical_json
from repro.streaming.window import SlidingWindowCounts, _canonical_row, _WindowShard


def raw_rows(rng, n_rows, n_items, n_classes):
    """Unsorted, duplicated and empty rows, as a stream delivers them."""
    return [
        (
            rng.integers(0, n_items, size=rng.integers(0, 9)).tolist(),
            int(rng.integers(0, n_classes)),
        )
        for _ in range(n_rows)
    ]


@st.composite
def shards(draw):
    n_items = draw(st.integers(min_value=1, max_value=70))
    n_classes = draw(st.integers(min_value=1, max_value=4))
    n_rows = draw(st.integers(min_value=0, max_value=130))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return n_items, n_classes, raw_rows(rng, n_rows, n_items, n_classes)


@st.composite
def windows(draw):
    """A window with patterns, its raw events, and its dimensions."""
    n_items = draw(st.integers(min_value=1, max_value=70))
    n_classes = draw(st.integers(min_value=1, max_value=4))
    shard_rows = draw(st.integers(min_value=1, max_value=130))
    window_shards = draw(st.integers(min_value=1, max_value=3))
    most = (window_shards + 1) * shard_rows + 3
    n_events = draw(st.integers(min_value=0, max_value=most))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    patterns = [
        rng.integers(0, n_items, size=rng.integers(0, 4)).tolist() for _ in range(6)
    ]
    window = SlidingWindowCounts(
        n_items, n_classes, shard_rows, window_shards, patterns=patterns
    )
    return window, raw_rows(rng, n_events, n_items, n_classes)


def sealed_shard(n_items, n_classes, rows, epoch=0):
    shard = _WindowShard(epoch, n_items, n_classes)
    for items, label in rows:
        shard.append(*_canonical_row(items, label, n_items, n_classes))
    return shard


def assert_same_shard(restored, shard):
    assert restored.epoch == shard.epoch
    assert restored.transactions == shard.transactions
    assert restored.labels == shard.labels
    item_bits, label_words = shard._bits()
    assert restored._item_bits.n_bits == item_bits.n_bits
    assert restored._item_bits.words.dtype == np.dtype("<u8")
    assert np.array_equal(restored._item_bits.words, item_bits.words)
    assert restored._label_words.dtype == np.dtype("<u8")
    assert np.array_equal(restored._label_words, label_words)


def assert_same_window(restored, window):
    assert restored.seq == window.seq
    assert restored.patterns == window.patterns
    assert np.array_equal(restored.counts(), window.counts())
    assert np.array_equal(restored.class_totals(), window.class_totals())
    data, expected = restored.window_dataset(), window.window_dataset()
    assert data.transactions == expected.transactions
    assert np.array_equal(data.labels, expected.labels)
    assert canonical_json(restored.to_payload()) == canonical_json(window.to_payload())


class TestShardWords:
    @settings(max_examples=120, deadline=None)
    @given(case=shards())
    def test_payload_restores_the_same_shard_without_repacking(self, case):
        n_items, n_classes, rows = case
        shard = sealed_shard(n_items, n_classes, rows, epoch=5)
        payload = shard.to_payload()
        assert sorted(payload) == ["epoch", "n_rows", "words"]
        assert payload["n_rows"] == len(rows)
        restored = _WindowShard.from_payload(payload, n_items, n_classes)
        # Seeded from the payload: the first count packs nothing.
        assert restored._item_bits is not None
        assert restored._label_words is not None
        assert_same_shard(restored, shard)
        assert all(type(i) is int for row in restored.transactions for i in row)
        assert all(type(label) is int for label in restored.labels)
        assert restored.to_payload() == payload

    @settings(max_examples=60, deadline=None)
    @given(case=shards())
    def test_words_are_the_out_of_core_shard_file(self, case):
        n_items, n_classes, rows = case
        payload = sealed_shard(n_items, n_classes, rows).to_payload()
        data = base64.b64decode(payload["words"])
        assert len(data) == (n_items + n_classes) * -(-len(rows) // 64) * 8
        if not rows:
            assert data == b""
            return
        with tempfile.TemporaryDirectory() as out:
            writer = ShardWriter(out, n_items, n_classes, shard_rows=len(rows))
            writer.extend(rows)
            (handle,) = ShardSet.load(writer.close().root).handles
            assert Path(handle.path).read_bytes() == data


class TestWindowWords:
    @settings(max_examples=80, deadline=None)
    @given(case=windows())
    def test_full_payload_round_trip_keeps_counts_and_rows(self, case):
        window, events = case
        for items, label in events:
            window.append(items, label)
        restored = SlidingWindowCounts.from_payload(window.to_payload())
        assert_same_window(restored, window)
        # The restored open tail keeps taking appends.
        for items, label in events[:5]:
            assert restored.append(items, label) == window.append(items, label)
        assert_same_window(restored, window)

    @settings(max_examples=80, deadline=None)
    @given(case=windows())
    def test_row_form_payloads_restore_to_the_same_state(self, case):
        window, events = case
        replayed = SlidingWindowCounts(
            window.n_items,
            window.n_classes,
            window.shard_rows,
            window.window_shards,
            patterns=window.patterns,
        )
        rows = window.shard_rows

        def row_form(epoch):
            raw = events[epoch * rows : (epoch + 1) * rows]
            return {
                "epoch": epoch,
                "transactions": [items for items, _ in raw],
                "labels": [label for _, label in raw],
            }

        for items, label in events:
            sealed = window.append(items, label)
            if sealed is not None:
                replayed.restore_shard(row_form(sealed))
                assert_same_window(replayed, window)
        full = window.to_payload()
        full["shards"] = [row_form(epoch) for epoch in sorted(window._shards)]
        assert_same_window(SlidingWindowCounts.from_payload(full), window)


def malformed(kind, payload, n_items, n_classes):
    """``payload`` with one defect of ``kind``, or None if it cannot have it."""
    n_rows = payload["n_rows"]
    words = np.frombuffer(base64.b64decode(payload["words"]), dtype="<u8").copy()
    words = words.reshape(n_items + n_classes, -1)
    if kind == "invalid base64":
        return dict(payload, words=payload["words"] + "*")
    if kind == "truncated base64":
        if not payload["words"]:
            return None
        return dict(payload, words=payload["words"][:-1])
    if kind == "byte length":
        data = words.tobytes() + bytes(8)
    elif kind == "short byte length":
        if not n_rows:
            return None
        data = words.tobytes()[:-8]
    elif kind == "row count":
        return dict(payload, n_rows=n_rows + 64)
    elif kind in ("item tail bit", "label tail bit"):
        if n_rows % 64 == 0:
            return None
        mask = 0 if kind == "item tail bit" else n_items
        words[mask, -1] |= np.uint64(1) << np.uint64(n_rows % 64)
        data = words.tobytes()
    elif kind == "no label":
        if not n_rows:
            return None
        words[n_items:, 0] &= ~np.uint64(1)
        data = words.tobytes()
    elif kind == "two labels":
        if not n_rows or n_classes < 2:
            return None
        words[n_items:, 0] |= np.uint64(1)
        data = words.tobytes()
    return dict(payload, words=base64.b64encode(data).decode("ascii"))


MALFORMED = [
    "invalid base64",
    "truncated base64",
    "byte length",
    "short byte length",
    "row count",
    "item tail bit",
    "label tail bit",
    "no label",
    "two labels",
]


class TestMalformedWords:
    @pytest.mark.parametrize("kind", MALFORMED)
    @settings(max_examples=25, deadline=None)
    @given(case=shards())
    def test_raises_value_error_at_restore(self, kind, case):
        n_items, n_classes, rows = case
        payload = sealed_shard(n_items, n_classes, rows).to_payload()
        payload = malformed(kind, payload, n_items, n_classes)
        if payload is None:
            return
        with pytest.raises(ValueError):
            decode_shard_words(payload["words"], payload["n_rows"], n_items, n_classes)
        with pytest.raises(ValueError):
            _WindowShard.from_payload(payload, n_items, n_classes)
        if rows:
            # Through both doors of the window: a delta and a full record.
            window = SlidingWindowCounts(n_items, n_classes, shard_rows=len(rows))
            with pytest.raises(ValueError):
                window.restore_shard(payload)
            full = window.to_payload()
            full.update(seq=len(rows), shards=[payload])
            with pytest.raises(ValueError):
                SlidingWindowCounts.from_payload(full)

    def test_every_kind_applies_to_a_ragged_two_class_shard(self):
        rows = [([1, 0], 0), ([2], 1), ([], 1)]
        payload = sealed_shard(3, 2, rows).to_payload()
        for kind in MALFORMED:
            bad = malformed(kind, payload, 3, 2)
            assert bad is not None and bad != payload, kind
            with pytest.raises(ValueError):
                _WindowShard.from_payload(bad, 3, 2)
