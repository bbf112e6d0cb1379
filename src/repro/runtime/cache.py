"""Content-addressed artifact cache: the persistence behind ``--resume``.

Mining a dense partition or evaluating a CV fold can take minutes; a
crash used to throw all of it away.  The cache keys every stage artifact
by a SHA-256 fingerprint of *what produced it* — the dataset content
hashes already computed by :meth:`TransactionDataset.content_hash` plus
the stage's full configuration — so a resumed run can trust a hit
blindly: same key, byte-identical inputs, byte-identical artifact.

Layout (all JSON, human-inspectable)::

    <root>/<stage>/<key>.json

Each file is an envelope ``{format_version, stage, key, sha256,
payload}`` where ``sha256`` is the digest of the payload's canonical
JSON.  The file's bytes are exactly the envelope's canonical JSON: the
payload is encoded once, hashed, and spliced into the envelope, so a
write costs one C-encoder pass.  Files written before that (indented
JSON) still read.  :meth:`ArtifactCache.get` verifies the digest on
every read and raises :class:`CorruptArtifactError` on undecodable or
tampered files — a half-written or bit-rotted checkpoint must never be
silently replayed into a result.  Writes go through a temp file unique
to the call in the same directory and ``os.replace``, so a crash
mid-write leaves either the old artifact or none, never a torn one, and
concurrent writers of one key never share a temp file.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

from ..obs import core as _obs

__all__ = [
    "ArtifactCache",
    "CorruptArtifactError",
    "canonical_json",
    "content_key",
    "fingerprint",
]

_FORMAT_VERSION = 1


class CorruptArtifactError(RuntimeError):
    """A cached artifact failed decoding or checksum verification."""

    def __init__(self, path: Path, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"corrupt checkpoint {path}: {reason}")


def canonical_json(obj: Any) -> str:
    """The canonical JSON form digests are computed over.

    Sorted keys, no whitespace, no non-JSON fallbacks: two structurally
    equal payloads always serialize to the same bytes.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def content_key(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def fingerprint(**parts: Any) -> str:
    """Cache key for a stage: digest of its named inputs.

    Callers pass every input that influences the artifact — dataset
    content hash, thresholds, miner name, fold index, seed — and get a
    key that changes iff any of them does.
    """
    return content_key(parts)


class ArtifactCache:
    """Stage-partitioned, content-addressed JSON artifact store."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, stage: str, key: str) -> Path:
        return self.root / stage / f"{key}.json"

    def has(self, stage: str, key: str) -> bool:
        return self.path_for(stage, key).exists()

    def get(self, stage: str, key: str) -> Any | None:
        """The stored payload, ``None`` on a miss.

        Raises :class:`CorruptArtifactError` when the file exists but is
        not the intact artifact that was written: undecodable JSON, a
        foreign/mismatched envelope, or a checksum failure.
        """
        path = self.path_for(stage, key)
        read_start = time.perf_counter() if _obs._ACTIVE is not None else 0.0
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            _obs.add("runtime.cache.misses")
            return None
        except (OSError, UnicodeDecodeError) as exc:
            raise CorruptArtifactError(path, f"unreadable ({exc})") from exc
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorruptArtifactError(path, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(envelope, dict):
            raise CorruptArtifactError(path, "envelope is not an object")
        if envelope.get("format_version") != _FORMAT_VERSION:
            raise CorruptArtifactError(
                path,
                f"unsupported format_version {envelope.get('format_version')!r}",
            )
        if envelope.get("stage") != stage or envelope.get("key") != key:
            raise CorruptArtifactError(
                path, "envelope stage/key does not match its location"
            )
        payload = envelope.get("payload")
        digest = content_key(payload)
        if envelope.get("sha256") != digest:
            raise CorruptArtifactError(
                path,
                f"checksum mismatch (stored {envelope.get('sha256')!r}, "
                f"computed {digest!r})",
            )
        _obs.add("runtime.cache.hits")
        if _obs._ACTIVE is not None:
            # Hit latency covers the read plus envelope + checksum checks —
            # the full cost a resumed stage pays instead of recomputing.
            _obs.observe(
                "runtime.cache.hit_latency_s", time.perf_counter() - read_start
            )
        return payload

    def put(self, stage: str, key: str, payload: Any) -> Path:
        """Persist ``payload`` atomically; returns the artifact path."""
        start = time.perf_counter() if _obs._ACTIVE is not None else 0.0
        path = self.path_for(stage, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = canonical_json(payload)
        digest = hashlib.sha256(body.encode("ascii")).hexdigest()
        # canonical_json(envelope), with the payload encoded only once:
        # the sorted keys are format_version, key, payload, sha256, stage.
        head = canonical_json({"format_version": _FORMAT_VERSION, "key": key})
        tail = canonical_json({"sha256": digest, "stage": stage})
        data = f'{head[:-1]},"payload":{body},{tail[1:]}'.encode("ascii")
        fd, tmp = tempfile.mkstemp(prefix=f".{key}.", suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            # mkstemp creates 0600; artifacts stay readable as before.
            os.chmod(tmp, 0o644)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        _obs.add("runtime.cache.writes")
        if _obs._ACTIVE is not None:
            _obs.add("runtime.cache.bytes_written", len(data))
            _obs.observe("runtime.cache.put_s", time.perf_counter() - start)
        return path

    def clear(self) -> None:
        """Remove every cached artifact (fresh, non-resumed runs)."""
        if self.root.exists():
            shutil.rmtree(self.root)
