"""The content-addressed artifact cache behind ``repro experiment --resume``."""

from __future__ import annotations

import json
import shutil
import sys
import threading
from pathlib import Path

import pytest

from repro.obs import core as _obs
from repro.runtime.cache import (
    ArtifactCache,
    CorruptArtifactError,
    canonical_json,
    content_key,
    fingerprint,
)
from repro.testing.faults import corrupt_artifact


@pytest.fixture()
def cache(tmp_path) -> ArtifactCache:
    return ArtifactCache(tmp_path / "cache")


PAYLOAD = {"patterns": [[0, 1], [2]], "supports": [5, 3], "degraded": None}
#: An envelope written by the earlier indented-JSON ``put``.
LEGACY_ENVELOPE = Path(__file__).parent / "data" / "cache_envelope_indented_v1.json"


class TestKeys:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json(
            {"a": [2, 3], "b": 1}
        )

    def test_canonical_json_has_no_whitespace(self):
        assert " " not in canonical_json({"a": 1, "b": [2, {"c": 3}]})

    def test_content_key_is_stable_sha256(self):
        key = content_key({"x": 1})
        assert key == content_key({"x": 1})
        assert len(key) == 64 and int(key, 16) >= 0

    def test_fingerprint_changes_with_any_part(self):
        base = fingerprint(dataset="austral", min_support=0.1, fold=0)
        assert base == fingerprint(fold=0, dataset="austral", min_support=0.1)
        assert base != fingerprint(dataset="austral", min_support=0.1, fold=1)
        assert base != fingerprint(dataset="austral", min_support=0.2, fold=0)

    def test_float_parts_keep_full_precision(self):
        assert fingerprint(s=0.1) != fingerprint(s=0.1 + 1e-12)


class TestRoundTrip:
    def test_put_get_round_trips_payload(self, cache):
        key = fingerprint(stage="mine", partition=0)
        path = cache.put("mine", key, PAYLOAD)
        assert path == cache.path_for("mine", key)
        assert cache.get("mine", key) == PAYLOAD

    def test_get_miss_returns_none(self, cache):
        assert cache.get("mine", "0" * 64) is None

    def test_has_reflects_presence(self, cache):
        key = fingerprint(stage="fold", fold=1)
        assert not cache.has("fold", key)
        cache.put("fold", key, {"accuracy": 0.9})
        assert cache.has("fold", key)

    def test_put_is_atomic_no_temp_litter(self, cache):
        key = fingerprint(stage="mine", partition=1)
        cache.put("mine", key, PAYLOAD)
        leftovers = [
            p for p in cache.path_for("mine", key).parent.iterdir()
            if p.suffix != ".json"
        ]
        assert leftovers == []

    def test_put_overwrites_in_place(self, cache):
        key = fingerprint(stage="select", run="r")
        cache.put("select", key, {"v": 1})
        cache.put("select", key, {"v": 2})
        assert cache.get("select", key) == {"v": 2}

    def test_clear_removes_everything(self, cache):
        key = fingerprint(stage="mine", partition=2)
        cache.put("mine", key, PAYLOAD)
        cache.clear()
        assert not cache.root.exists()
        assert cache.get("mine", key) is None  # miss, not an error

    def test_counters_track_hits_and_misses(self, cache):
        key = fingerprint(stage="mine", partition=3)
        with _obs.session() as sess:
            cache.get("mine", key)
            cache.put("mine", key, PAYLOAD)
            cache.get("mine", key)
            counters = sess.export()["counters"]
        assert counters["runtime.cache.misses"] == 1
        assert counters["runtime.cache.writes"] == 1
        assert counters["runtime.cache.hits"] == 1

    def test_put_records_latency_and_bytes(self, cache):
        key = fingerprint(stage="mine", partition=4)
        with _obs.session() as sess:
            path = cache.put("mine", key, PAYLOAD)
            cache.put("mine", key, PAYLOAD)
            exported = sess.export()
        size = path.stat().st_size
        assert exported["counters"]["runtime.cache.bytes_written"] == 2 * size
        assert exported["histograms"]["runtime.cache.put_s"]["count"] == 2

    def test_concurrent_puts_of_one_key(self, cache):
        key = fingerprint(stage="models", model="same")
        errors = []

        def writer():
            try:
                for _ in range(5):
                    cache.put("models", key, PAYLOAD)
            except OSError as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.get("models", key) == PAYLOAD
        assert [p.name for p in cache.path_for("models", key).parent.iterdir()] == [
            f"{key}.json"
        ]

    def test_failed_write_leaves_no_temp_file(self, cache, monkeypatch):
        key = fingerprint(stage="mine", partition=5)

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.runtime.cache.os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.put("mine", key, PAYLOAD)
        assert list(cache.path_for("mine", key).parent.iterdir()) == []


class TestFormat:
    def test_file_is_the_canonical_envelope(self, cache):
        key = fingerprint(stage="mine", partition=6)
        path = cache.put("mine", key, PAYLOAD)
        envelope = {
            "format_version": 1,
            "stage": "mine",
            "key": key,
            "sha256": content_key(PAYLOAD),
            "payload": PAYLOAD,
        }
        assert path.read_bytes() == canonical_json(envelope).encode("ascii")

    def test_non_ascii_payload_round_trips(self, cache):
        key = fingerprint(stage="mine", partition=7)
        payload = {"name": "café ✓", "weights": [0.1, -2.5e-300]}
        cache.put("mine", key, payload)
        assert cache.get("mine", key) == payload

    def test_indented_envelope_from_earlier_writer_still_reads(self, cache):
        envelope = json.loads(LEGACY_ENVELOPE.read_text(encoding="utf-8"))
        stage, key = envelope["stage"], envelope["key"]
        path = cache.path_for(stage, key)
        path.parent.mkdir(parents=True)
        shutil.copyfile(LEGACY_ENVELOPE, path)
        assert cache.get(stage, key) == envelope["payload"]
        assert envelope["sha256"] == content_key(envelope["payload"])


class TestCorruptionDetection:
    def _stored(self, cache):
        key = fingerprint(stage="mine", partition=0)
        path = cache.put("mine", key, PAYLOAD)
        return key, path

    def test_flipped_bytes_are_detected(self, cache):
        key, path = self._stored(cache)
        corrupt_artifact(path, seed=3)
        with pytest.raises(CorruptArtifactError):
            cache.get("mine", key)

    def test_tampered_payload_fails_checksum(self, cache):
        key, path = self._stored(cache)
        envelope = json.loads(path.read_text())
        envelope["payload"]["supports"] = [999, 3]
        path.write_text(json.dumps(envelope))
        with pytest.raises(CorruptArtifactError, match="checksum mismatch"):
            cache.get("mine", key)

    def test_truncated_file_is_invalid_json(self, cache):
        key, path = self._stored(cache)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        with pytest.raises(CorruptArtifactError, match="invalid JSON"):
            cache.get("mine", key)

    def test_foreign_envelope_rejected(self, cache):
        key, path = self._stored(cache)
        other = fingerprint(stage="mine", partition=9)
        other_path = cache.path_for("mine", other)
        other_path.write_bytes(path.read_bytes())
        with pytest.raises(CorruptArtifactError, match="does not match"):
            cache.get("mine", other)

    def test_unsupported_format_version_rejected(self, cache):
        key, path = self._stored(cache)
        envelope = json.loads(path.read_text())
        envelope["format_version"] = 99
        path.write_text(json.dumps(envelope))
        with pytest.raises(CorruptArtifactError, match="format_version"):
            cache.get("mine", key)

    def test_non_object_envelope_rejected(self, cache):
        key, path = self._stored(cache)
        path.write_text("[1, 2, 3]")
        with pytest.raises(CorruptArtifactError, match="not an object"):
            cache.get("mine", key)

    def test_error_carries_path_and_reason(self, cache):
        key, path = self._stored(cache)
        path.write_text("{")
        with pytest.raises(CorruptArtifactError) as excinfo:
            cache.get("mine", key)
        assert excinfo.value.path == path
        assert "invalid JSON" in excinfo.value.reason
