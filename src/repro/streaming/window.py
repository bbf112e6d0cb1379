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

from ..core.bitset import BitMatrix, class_counts
from ..datasets.transactions import TransactionDataset

__all__ = ["SlidingWindowCounts"]


class _WindowShard:
    """One sealed (or open-tail) slice of the stream.

    Holds the raw rows plus, once sealed, the packed vertical bitsets
    and a per-pattern (k, m) count cache.  Counting work for a shard
    happens exactly once per (shard, tracked-pattern-set) pair.
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
            data = TransactionDataset(
                self.transactions,
                np.asarray(self.labels, dtype=np.int32),
                n_items=self.n_items,
                n_classes=self.n_classes,
            )
            self._item_bits = data.item_bits()
            self._label_words = data.label_bits().words
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
        items = tuple(sorted(set(int(i) for i in transaction)))
        if items and (items[0] < 0 or items[-1] >= self.n_items):
            raise ValueError(
                f"transaction {items} has items outside [0, {self.n_items})"
            )
        label = int(label)
        if not 0 <= label < self.n_classes:
            raise ValueError(f"label {label} outside [0, {self.n_classes})")
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
        """The live window as a batch dataset (for re-mining / oracles)."""
        return TransactionDataset(
            self.window_transactions(),
            self.window_labels(),
            n_items=self.n_items,
            n_classes=self.n_classes,
            name=name,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """JSON-stable snapshot sufficient to rebuild identical state.

        Only raw rows are serialized — bitsets and count caches are
        derived data and rebuild deterministically on first use.
        """
        return {
            "format_version": 1,
            "n_items": self.n_items,
            "n_classes": self.n_classes,
            "shard_rows": self.shard_rows,
            "window_shards": self.window_shards,
            "seq": self.seq,
            "patterns": [list(p) for p in self.patterns],
            "shards": [
                {
                    "epoch": shard.epoch,
                    "transactions": [list(t) for t in shard.transactions],
                    "labels": list(shard.labels),
                }
                for shard in self._live_shards()
            ],
        }

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
            shard = _WindowShard(
                int(entry["epoch"]), window.n_items, window.n_classes
            )
            for transaction, label in zip(entry["transactions"], entry["labels"]):
                shard.append(tuple(transaction), int(label))
            window._shards[shard.epoch] = shard
        return window
