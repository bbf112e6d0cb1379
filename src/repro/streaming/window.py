"""Sliding-window per-class support maintenance over shard-ring bitsets.

Batch mining rebuilds the vertical occurrence structure from scratch
for every dataset; a stream consumer cannot afford that per event.
:class:`SlidingWindowCounts` maintains the same per-class pattern
supports incrementally, with the same discipline
:class:`repro.obs.live.WindowedHistogram` proved out for latency
slices: the window is a **ring of shards**, each shard a small
immutable :class:`~repro.core.bitset.BitMatrix` vertical built once
when the shard seals, and window totals are an order-invariant integer
sum over live shards.  Appends touch only the open tail shard;
eviction is shard-granular (drop the oldest epoch's cached counts);
nothing is ever re-counted for rows that stayed in the window.

Equivalence contract (pinned by the hypothesis property suite in
``tests/test_streaming_window.py``): after any sequence of appends,
``counts()`` equals the batch per-class supports computed over exactly
the live-window rows — and because totals are integer sums over
per-shard integer counts, any merge order of the shards yields the
identical result, bit for bit.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from ..core.bitset import BitMatrix, class_counts, pack_rows, unpack_bits
from ..core.shards import decode_shard_words, encode_shard_words
from ..datasets.transactions import TransactionDataset

__all__ = ["SlidingWindowCounts"]


def _canonical_row(
    transaction: Iterable[int], label: int, n_items: int, n_classes: int
) -> tuple[tuple[int, ...], int]:
    """One stream row as a shard holds it: sorted, duplicate-free, in range.

    Rows enter a shard through here, from :meth:`SlidingWindowCounts.append`
    or a row-form payload; a payload's packed words decode to rows already
    in this form.  So nothing downstream re-sorts them: not the shard
    packer, not :meth:`SlidingWindowCounts.window_dataset`.
    """
    items = tuple(sorted(set(map(int, transaction))))
    if items and (items[0] < 0 or items[-1] >= n_items):
        raise ValueError(f"transaction {items} has items outside [0, {n_items})")
    label = int(label)
    if not 0 <= label < n_classes:
        raise ValueError(f"label {label} outside [0, {n_classes})")
    return items, label


class _WindowShard:
    """One sealed (or open-tail) slice of the stream.

    Holds the canonical rows plus, once sealed, the packed vertical
    bitsets (one :func:`~repro.core.bitset.pack_rows` pass) and a
    per-pattern (k, m) count cache.  Counting work for a shard happens
    exactly once per (shard, tracked-pattern-set) pair.  The packed
    words are what is persisted (:meth:`to_payload`), and a stream
    consumer persists each sealed shard once, in the checkpoint of its
    own seal.
    """

    def __init__(self, epoch: int, n_items: int, n_classes: int) -> None:
        self.epoch = epoch
        self.n_items = n_items
        self.n_classes = n_classes
        self.transactions: list[tuple[int, ...]] = []
        self.labels: list[int] = []
        self._item_bits: BitMatrix | None = None
        self._label_words: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._class_totals: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return len(self.transactions)

    def append(self, transaction: tuple[int, ...], label: int) -> None:
        self.transactions.append(transaction)
        self.labels.append(label)
        # The open tail mutates; sealed caches never coexist with appends.
        self._item_bits = None
        self._label_words = None
        self._counts = None
        self._class_totals = None

    def _bits(self) -> tuple[BitMatrix, np.ndarray]:
        if self._item_bits is None:
            item_words, self._label_words = pack_rows(
                self.transactions, self.labels, self.n_items, self.n_classes
            )
            self._item_bits = BitMatrix(item_words, self.n_rows)
        return self._item_bits, self._label_words

    def class_totals(self) -> np.ndarray:
        if self._class_totals is None:
            self._class_totals = np.bincount(
                np.asarray(self.labels, dtype=np.int64),
                minlength=self.n_classes,
            ).astype(np.int64)
        return self._class_totals

    def pattern_counts(self, patterns: Sequence[tuple[int, ...]]) -> np.ndarray:
        """(k, m) per-class supports of ``patterns`` within this shard."""
        if self._counts is None:
            item_bits, label_words = self._bits()
            self._counts = class_counts(item_bits, label_words, patterns)
        return self._counts

    def invalidate_counts(self) -> None:
        """Forget the pattern-count cache (verticals stay warm)."""
        self._counts = None

    def to_payload(self) -> dict[str, Any]:
        """The shard's packed words, in the layout of an out-of-core shard
        file (:func:`~repro.core.shards.encode_shard_words`); counts
        rebuild on first use."""
        item_bits, label_words = self._bits()
        return {
            "epoch": self.epoch,
            "n_rows": self.n_rows,
            "words": encode_shard_words(item_bits.words, label_words),
        }

    @classmethod
    def from_payload(
        cls, payload: dict[str, Any], n_items: int, n_classes: int
    ) -> "_WindowShard":
        """A shard from :meth:`to_payload`'s words, or from the row form
        (``transactions``/``labels``) that checkpoints held before.

        Words are decoded and checked, and seed the packed verticals; the
        canonical rows come back in one ``np.nonzero`` pass.  Rows are
        canonicalized and checked as :meth:`SlidingWindowCounts.append`
        does.  Either way a bad payload raises ``ValueError`` here, not at
        the first count.
        """
        shard = cls(int(payload["epoch"]), n_items, n_classes)
        if "words" in payload:
            n_rows = int(payload["n_rows"])
            item_words, label_words = decode_shard_words(
                payload["words"], n_rows, n_items, n_classes
            )
            rows, items = np.nonzero(unpack_bits(item_words, n_rows).T)
            ends = np.bincount(rows, minlength=n_rows).cumsum().tolist()
            flat = items.tolist()
            shard.transactions = [
                tuple(flat[start:end]) for start, end in zip([0] + ends, ends)
            ]
            shard.labels = unpack_bits(label_words, n_rows).argmax(axis=0).tolist()
            shard._item_bits = BitMatrix(item_words, n_rows)
            shard._label_words = label_words
            return shard
        transactions, labels = payload["transactions"], payload["labels"]
        if len(transactions) != len(labels):
            raise ValueError("shard transactions and labels must align")
        for transaction, label in zip(transactions, labels):
            items, label = _canonical_row(transaction, label, n_items, n_classes)
            shard.transactions.append(items)
            shard.labels.append(label)
        return shard


class SlidingWindowCounts:
    """Incremental per-class supports over the last ``window_shards`` shards.

    Parameters
    ----------
    n_items / n_classes:
        Fixed dimensions of the stream's item and label spaces.
    shard_rows:
        Events per shard; the shard *seals* when full and the window
        advances one epoch.  Smaller shards mean finer eviction
        granularity and more frequent (cheaper) advances.
    window_shards:
        How many sealed shards the live window spans.  The open tail
        shard is additionally always part of the window, so the live
        row count ranges over
        ``(window_shards - 1) * shard_rows .. window_shards * shard_rows``
        once the stream has warmed up.
    patterns:
        Initial tracked itemsets (see :meth:`track`).
    """

    def __init__(
        self,
        n_items: int,
        n_classes: int,
        shard_rows: int = 64,
        window_shards: int = 8,
        patterns: Sequence[Sequence[int]] = (),
    ) -> None:
        if shard_rows < 1:
            raise ValueError("shard_rows must be >= 1")
        if window_shards < 1:
            raise ValueError("window_shards must be >= 1")
        self.n_items = int(n_items)
        self.n_classes = int(n_classes)
        self.shard_rows = int(shard_rows)
        self.window_shards = int(window_shards)
        self.patterns: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set(int(i) for i in p))) for p in patterns
        )
        self.seq = 0
        self._shards: dict[int, _WindowShard] = {}

    # ------------------------------------------------------------------
    # Stream ingestion
    # ------------------------------------------------------------------
    def append(self, transaction: Iterable[int], label: int) -> int | None:
        """Ingest one event; returns the sealed epoch when a shard fills.

        A return of ``e`` means shard ``e`` just sealed (its verticals
        are now immutable) and epochs ``<= e - window_shards`` were
        evicted — the consumer's cue to re-evaluate drift.
        """
        items, label = _canonical_row(
            transaction, label, self.n_items, self.n_classes
        )
        epoch = self.seq // self.shard_rows
        shard = self._shards.get(epoch)
        if shard is None:
            shard = self._shards[epoch] = _WindowShard(
                epoch, self.n_items, self.n_classes
            )
        shard.append(items, label)
        self.seq += 1
        if self.seq % self.shard_rows == 0:
            self._evict(epoch)
            return epoch
        return None

    def restore_shard(self, payload: dict[str, Any]) -> None:
        """Re-seal a shard from :meth:`shard_payload`'s encoding.

        Leaves the window as the ``append`` calls that filled the shard
        would have: ``seq`` advances past it and old epochs are evicted.
        The shard must be the next full one.
        """
        shard = _WindowShard.from_payload(payload, self.n_items, self.n_classes)
        if (
            self.seq % self.shard_rows
            or shard.epoch != self.seq // self.shard_rows
            or shard.n_rows != self.shard_rows
        ):
            raise ValueError(
                f"shard {shard.epoch} with {shard.n_rows} rows does not seal "
                f"the window at seq {self.seq}"
            )
        self._shards[shard.epoch] = shard
        self.seq += shard.n_rows
        self._evict(shard.epoch)

    def _evict(self, sealed_epoch: int) -> None:
        horizon = sealed_epoch - self.window_shards
        for epoch in [e for e in self._shards if e <= horizon]:
            del self._shards[epoch]

    # ------------------------------------------------------------------
    # Tracked patterns
    # ------------------------------------------------------------------
    def track(self, patterns: Sequence[Sequence[int]]) -> None:
        """Replace the tracked pattern set; shard verticals stay cached."""
        self.patterns = tuple(
            tuple(sorted(set(int(i) for i in p))) for p in patterns
        )
        for shard in self._shards.values():
            shard.invalidate_counts()

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------
    def _live_shards(self) -> list[_WindowShard]:
        return [self._shards[e] for e in sorted(self._shards)]

    def counts(self) -> np.ndarray:
        """(k, m) per-class supports of the tracked patterns, live window.

        An integer sum over per-shard integer counts: associative and
        commutative, so any shard merge order produces identical bytes —
        the order-invariance property the test layer pins.
        """
        totals = np.zeros((len(self.patterns), self.n_classes), dtype=np.int64)
        for shard in self._live_shards():
            if shard.n_rows:
                totals += shard.pattern_counts(self.patterns)
        return totals

    def class_totals(self) -> np.ndarray:
        totals = np.zeros(self.n_classes, dtype=np.int64)
        for shard in self._live_shards():
            if shard.n_rows:
                totals += shard.class_totals()
        return totals

    @property
    def window_rows(self) -> int:
        return sum(shard.n_rows for shard in self._live_shards())

    def window_transactions(self) -> list[tuple[int, ...]]:
        """Live-window rows in arrival order (oldest first)."""
        rows: list[tuple[int, ...]] = []
        for shard in self._live_shards():
            rows.extend(shard.transactions)
        return rows

    def window_labels(self) -> np.ndarray:
        labels: list[int] = []
        for shard in self._live_shards():
            labels.extend(shard.labels)
        return np.asarray(labels, dtype=np.int32)

    def window_dataset(self, name: str = "stream-window") -> TransactionDataset:
        """The live window as a batch dataset (for re-mining / oracles).

        Its rows are the shards' canonical rows, not re-sorted.
        """
        return TransactionDataset._of_canonical(
            self.window_transactions(),
            self.window_labels(),
            self.n_items,
            self.n_classes,
            None,
            name,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """JSON-stable snapshot sufficient to rebuild identical state.

        Each live shard, the open tail included, is serialized as its
        packed words (:meth:`shard_payload`); count caches are derived
        data and rebuild deterministically on first use.
        """
        return {
            "format_version": 1,
            "n_items": self.n_items,
            "n_classes": self.n_classes,
            "shard_rows": self.shard_rows,
            "window_shards": self.window_shards,
            "seq": self.seq,
            "patterns": [list(p) for p in self.patterns],
            "shards": [shard.to_payload() for shard in self._live_shards()],
        }

    def shard_payload(self, epoch: int) -> dict[str, Any]:
        """Live shard ``epoch`` in the encoding :meth:`to_payload` uses."""
        return self._shards[epoch].to_payload()

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "SlidingWindowCounts":
        if payload.get("format_version") != 1:
            raise ValueError(
                f"unsupported window payload version {payload.get('format_version')!r}"
            )
        window = cls(
            n_items=payload["n_items"],
            n_classes=payload["n_classes"],
            shard_rows=payload["shard_rows"],
            window_shards=payload["window_shards"],
            patterns=payload["patterns"],
        )
        window.seq = int(payload["seq"])
        for entry in payload["shards"]:
            shard = _WindowShard.from_payload(
                entry, window.n_items, window.n_classes
            )
            window._shards[shard.epoch] = shard
        return window
