"""Memory-mapped row shards: the out-of-core form of the vertical bitsets.

The batch pipeline holds one :class:`~repro.core.bitset.BitMatrix` per
dataset in process memory and *pickles it into every pool task*.  That
caps the row count at "fits in one address space, times the fan-out".
This module splits the rows into fixed-size shards persisted as flat
binary files of the exact same packed layout (little-endian uint64
words, 64 rows per word, tail bits zero), so that:

* a worker opens a shard **zero-copy** via ``np.memmap`` from a tiny
  picklable :class:`ShardHandle` (path + dimensions) — nothing about the
  data itself ever crosses the process boundary;
* the OS page cache, not the Python heap, decides how much of the
  dataset is resident; peak RSS is bounded by one shard's working set
  per worker rather than the whole dataset;
* per-shard content hashes make every downstream artifact (mined
  candidates, count passes) content-addressable for byte-identical
  resume through the runtime cache.

Shard file format (version 1)::

    items block   (n_items,   word_count(n_rows)) little-endian uint64, C order
    labels block  (n_classes, word_count(n_rows)) little-endian uint64, C order

Row ``t`` of the shard occupies bit ``t`` of each mask, exactly as in
:class:`BitMatrix`; the two blocks are the vertical item masks and the
per-class row masks of that shard.  A ``shards.json`` manifest records
dimensions and the SHA-256 of every shard file.

A stream checkpoint embeds one shard in the same layout, as base64 text
(:func:`encode_shard_words` / :func:`decode_shard_words`).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..obs import core as _obs
from .bitset import (
    BitMatrix,
    SupportQueries,
    pack_rows,
    packed_ones,
    popcount,
    scatter_bits,
    unpack_bits,
    word_count,
)

__all__ = [
    "SHARD_FORMAT_VERSION",
    "MANIFEST_NAME",
    "ShardHandle",
    "ShardSet",
    "ShardWriter",
    "VerticalDataset",
    "decode_shard_words",
    "encode_shard_words",
    "shard_dataset",
    "stitch",
]

SHARD_FORMAT_VERSION = 1
MANIFEST_NAME = "shards.json"
_WORD_DTYPE = np.dtype("<u8")


def encode_shard_words(item_words: np.ndarray, label_words: np.ndarray) -> str:
    """A shard's packed words as base64 text of its shard file bytes."""
    return base64.b64encode(item_words.tobytes() + label_words.tobytes()).decode(
        "ascii"
    )


def decode_shard_words(
    text: str, n_rows: int, n_items: int, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """(item words, label words) of :func:`encode_shard_words`'s text.

    Checked as a shard of ``n_rows`` rows: ``ValueError`` for invalid
    base64, a byte length other than the layout's, a set tail bit in any
    mask, or a row with no label or more than one.  The arrays are
    read-only views of the decoded bytes.
    """
    n_words = word_count(n_rows)
    data = base64.b64decode(text, validate=True)
    expected = (n_items + n_classes) * n_words * 8
    if len(data) != expected:
        raise ValueError(
            f"shard of {n_rows} rows over {n_items} items and {n_classes} "
            f"classes has {expected} bytes, got {len(data)}"
        )
    words = np.frombuffer(data, dtype=_WORD_DTYPE).reshape(
        n_items + n_classes, n_words
    )
    if n_words and np.any(words[:, -1] & ~packed_ones(n_rows)[-1]):
        raise ValueError(f"shard words set bits past row {n_rows}")
    item_words, label_words = words[:n_items], words[n_items:]
    if np.any(unpack_bits(label_words, n_rows).sum(axis=0) != 1):
        raise ValueError("every shard row needs exactly one label")
    return item_words, label_words


@dataclass(frozen=True)
class ShardHandle:
    """A zero-copy reference to one shard file.

    This is what crosses the process boundary: a path plus dimensions
    (a few hundred bytes pickled), never the data.  Workers re-open the
    file with ``np.memmap`` so shard pages are shared read-only through
    the page cache across the whole pool.
    """

    path: str
    n_rows: int
    n_items: int
    n_classes: int
    sha256: str = ""

    @property
    def n_words(self) -> int:
        return word_count(self.n_rows)

    def item_words(self) -> np.ndarray:
        """The packed item masks, memory-mapped read-only (no copy)."""
        return np.memmap(
            self.path,
            dtype=_WORD_DTYPE,
            mode="r",
            offset=0,
            shape=(self.n_items, self.n_words),
        )

    def label_words(self) -> np.ndarray:
        """The packed per-class row masks, memory-mapped read-only."""
        return np.memmap(
            self.path,
            dtype=_WORD_DTYPE,
            mode="r",
            offset=self.n_items * self.n_words * 8,
            shape=(self.n_classes, self.n_words),
        )

    def item_bits(self) -> BitMatrix:
        """The shard's vertical bitset view.

        ``BitMatrix`` normalizes through ``np.ascontiguousarray``, which
        returns the memmap itself for a contiguous ``'<u8'`` buffer — the
        view stays zero-copy (asserted by the shard test suite).
        """
        return BitMatrix(self.item_words(), self.n_rows)

    def class_counts(self) -> np.ndarray:
        """Rows per class in this shard (int64, from the label masks)."""
        if self.n_rows == 0:
            return np.zeros(self.n_classes, dtype=np.int64)
        return popcount(self.label_words()).astype(np.int64)


class ShardWriter:
    """Streamed shard builder: append rows, seal a shard every ``shard_rows``.

    Buffers at most one shard's rows in memory; each sealed shard is
    packed with :func:`~repro.core.bitset.pack_rows`, the shard packer
    the stream window seals with too (no dense intermediate), written
    atomically (temp file + ``os.replace``) and hashed.  ``close`` seals
    the ragged final shard and writes the manifest.
    """

    def __init__(
        self,
        out_dir: str | Path,
        n_items: int,
        n_classes: int,
        shard_rows: int,
        name: str = "shards",
    ) -> None:
        if shard_rows < 1:
            raise ValueError("shard_rows must be >= 1")
        if n_items < 1 or n_classes < 1:
            raise ValueError("n_items and n_classes must be >= 1")
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.n_items = int(n_items)
        self.n_classes = int(n_classes)
        self.shard_rows = int(shard_rows)
        self.name = name
        self._buffer_rows: list[tuple[int, ...]] = []
        self._buffer_labels: list[int] = []
        self._entries: list[dict] = []
        self._closed = False

    def append(self, transaction: Sequence[int], label: int) -> None:
        self._buffer_rows.append(tuple(sorted(set(int(i) for i in transaction))))
        self._buffer_labels.append(int(label))
        if len(self._buffer_rows) >= self.shard_rows:
            self._seal()

    def extend(self, rows: Iterable[tuple[Sequence[int], int]]) -> None:
        for transaction, label in rows:
            self.append(transaction, label)

    def _seal(self) -> None:
        index = len(self._entries)
        item_words, label_words = pack_rows(
            self._buffer_rows, self._buffer_labels, self.n_items, self.n_classes
        )
        payload = item_words.tobytes() + label_words.tobytes()
        digest = hashlib.sha256(payload).hexdigest()
        file_name = f"shard-{index:05d}.bin"
        path = self.out_dir / file_name
        tmp = self.out_dir / f".{file_name}.{os.getpid()}.tmp"
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        self._entries.append(
            {"file": file_name, "n_rows": len(self._buffer_rows), "sha256": digest}
        )
        _obs.add("shards.sealed", 1)
        _obs.add("shards.bytes_written", len(payload))
        self._buffer_rows = []
        self._buffer_labels = []

    def close(self) -> "ShardSet":
        if self._closed:
            raise RuntimeError("ShardWriter is already closed")
        if self._buffer_rows:
            self._seal()
        self._closed = True
        manifest = {
            "format_version": SHARD_FORMAT_VERSION,
            "name": self.name,
            "n_items": self.n_items,
            "n_classes": self.n_classes,
            "n_rows": sum(e["n_rows"] for e in self._entries),
            "shard_rows": self.shard_rows,
            "shards": self._entries,
        }
        manifest_path = self.out_dir / MANIFEST_NAME
        tmp = self.out_dir / f".{MANIFEST_NAME}.{os.getpid()}.tmp"
        tmp.write_text(
            json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
        os.replace(tmp, manifest_path)
        return ShardSet(self.out_dir, manifest)


class ShardSet:
    """A sharded dataset: the manifest plus one :class:`ShardHandle` each."""

    def __init__(self, root: str | Path, manifest: dict) -> None:
        if manifest.get("format_version") != SHARD_FORMAT_VERSION:
            raise ValueError(
                f"unsupported shard format {manifest.get('format_version')!r}"
            )
        self.root = Path(root)
        self.manifest = manifest
        self.name = str(manifest.get("name", "shards"))
        self.n_items = int(manifest["n_items"])
        self.n_classes = int(manifest["n_classes"])
        self.n_rows = int(manifest["n_rows"])
        self.handles: list[ShardHandle] = [
            ShardHandle(
                path=str(self.root / entry["file"]),
                n_rows=int(entry["n_rows"]),
                n_items=self.n_items,
                n_classes=self.n_classes,
                sha256=str(entry["sha256"]),
            )
            for entry in manifest["shards"]
        ]

    @classmethod
    def load(cls, root: str | Path) -> "ShardSet":
        root = Path(root)
        manifest = json.loads((root / MANIFEST_NAME).read_text(encoding="utf-8"))
        return cls(root, manifest)

    def __len__(self) -> int:
        return len(self.handles)

    def __iter__(self) -> Iterator[ShardHandle]:
        return iter(self.handles)

    def class_totals(self) -> np.ndarray:
        """Rows per class over all shards (order-invariant int64 sum)."""
        totals = np.zeros(self.n_classes, dtype=np.int64)
        for handle in self.handles:
            totals += handle.class_counts()
        return totals

    def content_digest(self) -> str:
        """Digest identifying the exact sharded data (dims + shard hashes)."""
        digest = hashlib.sha256()
        digest.update(
            f"{self.n_rows}:{self.n_items}:{self.n_classes};".encode()
        )
        for entry in self.manifest["shards"]:
            digest.update(f"{entry['n_rows']}:{entry['sha256']};".encode())
        return digest.hexdigest()

    def verify(self) -> None:
        """Re-hash every shard file; raises ``ValueError`` on a mismatch."""
        for handle in self.handles:
            actual = hashlib.sha256(Path(handle.path).read_bytes()).hexdigest()
            if actual != handle.sha256:
                raise ValueError(
                    f"shard {handle.path} content hash mismatch "
                    f"(manifest {handle.sha256}, file {actual})"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardSet(shards={len(self.handles)}, rows={self.n_rows}, "
            f"items={self.n_items}, classes={self.n_classes})"
        )


def shard_dataset(
    data, out_dir: str | Path, shard_rows: int, reuse: bool = True
) -> ShardSet:
    """Shard a :class:`TransactionDataset` (or anything with the same duck
    type) into ``out_dir``.

    With ``reuse`` (the default), an existing manifest whose dimensions
    and ``shard_rows`` match is loaded instead of rewritten — the cheap
    path for ``--resume`` (the run fingerprint already pins the dataset
    content, and every downstream artifact is keyed by shard hashes, so
    a stale reuse can never be silently replayed into a result).
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / MANIFEST_NAME
    if reuse and manifest_path.exists():
        existing = ShardSet.load(out_dir)
        if (
            existing.n_rows == data.n_rows
            and existing.n_items == data.n_items
            and existing.n_classes == data.n_classes
            and int(existing.manifest.get("shard_rows", -1)) == int(shard_rows)
        ):
            _obs.event(
                "stage_skipped",
                f"shards: reusing {len(existing)} existing shard files",
                stage="shard_write",
            )
            return existing
    writer = ShardWriter(
        out_dir,
        n_items=data.n_items,
        n_classes=data.n_classes,
        shard_rows=shard_rows,
        name=getattr(data, "name", "shards"),
    )
    writer.extend(zip(data.transactions, (int(l) for l in data.labels)))
    return writer.close()


class VerticalDataset(SupportQueries):
    """A dataset reconstructed from packed verticals — no transaction list.

    Duck-types the slice of :class:`TransactionDataset` the measures and
    MMRFS layers consume (``n_rows``/``n_items``/``n_classes``/``labels``
    /``item_bits()``/``label_bits()``/``class_counts()``/``covers()``),
    while holding only the packed words: 1/8 byte per (item, row) cell
    versus 8 bytes for the float design matrix, which is what lets
    selection run at the 10M-row scale the shards mine at.
    """

    def __init__(
        self,
        item_bits: BitMatrix,
        label_bits: BitMatrix,
        n_classes: int,
        name: str = "vertical",
    ) -> None:
        if item_bits.n_bits != label_bits.n_bits:
            raise ValueError("item and label masks must cover the same rows")
        self._item_bits = item_bits
        self._label_bits = label_bits
        self.n_rows = item_bits.n_bits
        self.n_items = item_bits.n_masks
        self.n_classes = int(n_classes)
        self.name = name
        self._labels: np.ndarray | None = None

    @property
    def labels(self) -> np.ndarray:
        if self._labels is None:
            dense = unpack_bits(self._label_bits.words, self.n_rows)
            labels = np.full(self.n_rows, -1, dtype=np.int32)
            for c in range(self.n_classes):
                labels[dense[c]] = c
            self._labels = labels
        return self._labels

    def item_bits(self) -> BitMatrix:
        return self._item_bits

    def label_bits(self) -> BitMatrix:
        return self._label_bits

    def class_counts(self) -> np.ndarray:
        return popcount(self._label_bits.words).astype(np.int64)

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VerticalDataset(rows={self.n_rows}, items={self.n_items}, "
            f"classes={self.n_classes})"
        )


def stitch(shard_set: ShardSet, name: str | None = None) -> VerticalDataset:
    """Concatenate a shard set's masks into one :class:`VerticalDataset`.

    Memory cost is the *packed* size of the full dataset (n_masks x
    n_rows / 8 bytes) — never a dense matrix.  Shards whose global row
    offset is word-aligned (``offset % 64 == 0``) are copied word-for-
    word; a ragged offset falls back to a per-shard scatter of set bits,
    so arbitrary shard sizes stitch correctly (tail bits stay zero, the
    invariant the property tests pin).
    """
    n_words = word_count(shard_set.n_rows)
    item_words = np.zeros((shard_set.n_items, n_words), dtype=_WORD_DTYPE)
    label_words = np.zeros((shard_set.n_classes, n_words), dtype=_WORD_DTYPE)
    base = 0
    for handle in shard_set.handles:
        for target, source in (
            (item_words, handle.item_words()),
            (label_words, handle.label_words()),
        ):
            if handle.n_rows == 0:
                continue
            if base % 64 == 0:
                start = base // 64
                # OR (not assign): the previous ragged shard may already
                # have scattered bits into this shard's first word.
                target[:, start : start + source.shape[1]] |= source
            else:
                dense = unpack_bits(source, handle.n_rows)
                masks, rows = np.nonzero(dense)
                scatter_bits(target, masks, rows + base)
        base += handle.n_rows
    return VerticalDataset(
        BitMatrix(item_words, shard_set.n_rows),
        BitMatrix(label_words, shard_set.n_rows),
        shard_set.n_classes,
        name=name if name is not None else shard_set.name,
    )
