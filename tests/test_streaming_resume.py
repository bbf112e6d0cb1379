"""Stream consumer: determinism, checkpointing and byte-identical resume.

The contract mirrors ``repro experiment --resume``: every seal is
checkpointed through the content-addressed cache before its fault
seam, so a consumer killed at *any* seal resumes from durable state
and the final ``stream_report.json`` is byte-identical to an
uninterrupted run's.  A seal's record holds only what it changed; the
last seal's holds the full state, and resume replays the chain.
Resume validation reuses the runtime's error taxonomy (missing
manifest / fingerprint mismatch / corrupt artifact) so the CLI exit
codes stay uniform across subsystems.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.core.bitset import unpack_bits
from repro.core.shards import decode_shard_words
from repro.runtime.cache import ArtifactCache, CorruptArtifactError, fingerprint
from repro.runtime.experiment import ResumeMismatchError, ResumeMissingError
from repro.streaming import StreamSpec, run_stream, stream_fingerprint
from repro.testing.faults import (
    Fault,
    InjectedFault,
    corrupt_artifact,
    injected_faults,
)

SPEC = StreamSpec(
    n_items=10,
    n_classes=2,
    k=8,
    max_length=2,
    shard_rows=20,
    window_shards=3,
    drift_tolerance=0.05,
)


def planted_events(n: int = 120, seed: int = 11):
    """A stream whose class-signal flips mid-way, forcing re-selection."""
    rng = np.random.default_rng(seed)
    events = []
    for i in range(n):
        label = int(rng.integers(0, 2))
        shifted = i >= n // 2
        base = [0, 1] if (label ^ shifted) else [2, 3]
        extra = rng.choice(SPEC.n_items, size=2, replace=False).tolist()
        events.append((tuple(sorted(set(base + extra))), label))
    return events


@pytest.fixture(scope="module")
def events():
    return planted_events()


@pytest.fixture(scope="module")
def baseline(events, tmp_path_factory):
    out = tmp_path_factory.mktemp("stream-baseline") / "run"
    result = run_stream(events, SPEC, out)
    return result, result.report_path.read_bytes()


class TestDeterminism:
    def test_rerun_is_byte_identical(self, events, baseline, tmp_path):
        result = run_stream(events, SPEC, tmp_path / "run")
        assert result.report_path.read_bytes() == baseline[1]
        assert result.fingerprint == baseline[0].fingerprint

    def test_stream_actually_exercises_the_loop(self, baseline):
        result = baseline[0]
        assert result.seals == 6
        # The planted mid-stream signal flip must trigger at least the
        # initial selection plus one drift-driven re-selection.
        assert result.n_reselections >= 2
        windows = result.report["windows"]
        assert [w["epoch"] for w in windows] == list(range(6))
        assert windows[0]["reselected"] and windows[0]["max_shift"] is None
        assert any(w["reselected"] and w["max_shift"] is not None for w in windows)

    def test_resume_of_a_completed_run_is_byte_identical(
        self, events, baseline, tmp_path
    ):
        out = tmp_path / "run"
        run_stream(events, SPEC, out)
        with obs.session() as session:
            resumed = run_stream(events, SPEC, out, resume=True)
        assert resumed.report_path.read_bytes() == baseline[1]
        assert resumed.events_consumed == len(events)
        assert session.counters.get("runtime.cache.writes", 0) == 0


def records(out, events, spec=SPEC):
    """Every checkpoint record of a stream directory, in seal order."""
    cache = ArtifactCache(out / "cache")
    key = stream_fingerprint(spec, events)
    found = []
    while True:
        payload = cache.get("stream_shard", fingerprint(run=key, seal=len(found)))
        if payload is None:
            return found
        found.append(payload)


class TestDeltaRecords:
    def test_only_the_last_seal_records_the_full_state(self, events, tmp_path):
        out = tmp_path / "run"
        result = run_stream(events, SPEC, out)
        chain = records(out, events)
        assert len(chain) == result.seals
        assert ["window" in record for record in chain] == [False] * (
            result.seals - 1
        ) + [True]
        assert chain[-1]["windows"] == result.report["windows"]
        for record, entry in zip(chain[:-1], result.report["windows"]):
            assert record["windows_entry"] == entry
            shard = record["shard"]
            assert shard["n_rows"] == SPEC.shard_rows
            _, label_words = decode_shard_words(
                shard["words"], shard["n_rows"], SPEC.n_items, SPEC.n_classes
            )
            labels = unpack_bits(label_words, SPEC.shard_rows).argmax(axis=0)
            start = entry["epoch"] * SPEC.shard_rows
            sealed = events[start : start + SPEC.shard_rows]
            assert labels.tolist() == [label for _, label in sealed]
            assert ("patterns" in record) == entry["reselected"]

    def test_checkpoint_bytes_do_not_grow_with_the_history(self, tmp_path):
        spec = dataclasses.replace(SPEC, shard_rows=10)
        written = []
        for seals in (32, 64):
            stream = planted_events(seals * spec.shard_rows)
            out = tmp_path / f"run{seals}"
            with obs.session() as session:
                result = run_stream(stream, spec, out)
            assert result.seals == seals
            assert all(
                "window" not in record for record in records(out, stream, spec)[:-1]
            )
            written.append(session.counters["runtime.cache.bytes_written"])
        # Re-sending the window and the windows history at every seal
        # made twice the seals cost 2.8x the bytes.
        assert written[1] < 2.5 * written[0]


class TestKillResume:
    # Seal 0 is the first, 1 and 3 re-select, 2 and 4 do not, 3 is the
    # first to evict a shard (window_shards=3) and 5 is the terminal
    # seal, whose record is the full state.
    @pytest.mark.parametrize(
        "shard, reselected",
        [(0, True), (1, True), (2, False), (3, True), (4, False), (5, True)],
        ids=[str(seal) for seal in range(6)],
    )
    def test_kill_at_any_shard_then_resume_is_byte_identical(
        self, events, baseline, tmp_path, shard, reselected
    ):
        assert baseline[0].report["windows"][shard]["reselected"] == reselected
        out = tmp_path / "run"
        with injected_faults(
            [Fault(f"stream:shard:{shard}", "raise")], tmp_path / "state"
        ):
            with pytest.raises(InjectedFault):
                run_stream(events, SPEC, out)
        resumed = run_stream(events, SPEC, out, resume=True)
        assert resumed.report_path.read_bytes() == baseline[1]
        assert resumed.fingerprint == baseline[0].fingerprint

    def test_resume_skips_already_sealed_shards(self, events, tmp_path):
        out = tmp_path / "run"
        with injected_faults(
            [Fault("stream:shard:3", "raise")], tmp_path / "state"
        ):
            with pytest.raises(InjectedFault):
                run_stream(events, SPEC, out)
        resumed = run_stream(events, SPEC, out, resume=True)
        # Shards 0-3 sealed before the kill; only events after seal 3
        # (seq 80) replay, so the resumed run consumed just the tail.
        assert resumed.events_consumed == len(events)
        cache = ArtifactCache(out / "cache")
        key = stream_fingerprint(SPEC, events)
        for seal in range(6):
            assert cache.has("stream_shard", fingerprint(run=key, seal=seal))

    def test_double_kill_then_resume(self, events, baseline, tmp_path):
        out = tmp_path / "run"
        with injected_faults(
            [Fault("stream:shard:1", "raise")], tmp_path / "s1"
        ):
            with pytest.raises(InjectedFault):
                run_stream(events, SPEC, out)
        with injected_faults(
            [Fault("stream:shard:4", "raise")], tmp_path / "s2"
        ):
            with pytest.raises(InjectedFault):
                run_stream(events, SPEC, out, resume=True)
        resumed = run_stream(events, SPEC, out, resume=True)
        assert resumed.report_path.read_bytes() == baseline[1]


class TestResumeValidation:
    def test_resume_without_manifest_raises_missing(self, events, tmp_path):
        with pytest.raises(ResumeMissingError):
            run_stream(events, SPEC, tmp_path / "nothing", resume=True)

    def test_resume_with_different_spec_raises_mismatch(self, events, tmp_path):
        out = tmp_path / "run"
        run_stream(events, SPEC, out)
        other = StreamSpec(
            n_items=SPEC.n_items, n_classes=SPEC.n_classes, k=SPEC.k + 1
        )
        with pytest.raises(ResumeMismatchError):
            run_stream(events, other, out, resume=True)

    def test_resume_with_different_events_raises_mismatch(self, events, tmp_path):
        out = tmp_path / "run"
        run_stream(events, SPEC, out)
        with pytest.raises(ResumeMismatchError):
            run_stream(events[:-1], SPEC, out, resume=True)

    def test_resume_with_garbage_manifest_raises_mismatch(self, events, tmp_path):
        out = tmp_path / "run"
        run_stream(events, SPEC, out)
        (out / "stream_run.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ResumeMismatchError):
            run_stream(events, SPEC, out, resume=True)

    def test_corrupt_checkpoint_raises(self, events, tmp_path):
        out = tmp_path / "run"
        with injected_faults(
            [Fault("stream:shard:2", "raise")], tmp_path / "state"
        ):
            with pytest.raises(InjectedFault):
                run_stream(events, SPEC, out)
        cache = ArtifactCache(out / "cache")
        key = stream_fingerprint(SPEC, events)
        corrupt_artifact(
            cache.path_for("stream_shard", fingerprint(run=key, seal=1))
        )
        with pytest.raises(CorruptArtifactError):
            run_stream(events, SPEC, out, resume=True)

    def test_unknown_record_version_raises_mismatch(self, events, tmp_path):
        out = tmp_path / "run"
        with injected_faults(
            [Fault("stream:shard:2", "raise")], tmp_path / "state"
        ):
            with pytest.raises(InjectedFault):
                run_stream(events, SPEC, out)
        cache = ArtifactCache(out / "cache")
        seal = fingerprint(run=stream_fingerprint(SPEC, events), seal=1)
        record = cache.get("stream_shard", seal)
        cache.put("stream_shard", seal, {**record, "format_version": 2})
        with pytest.raises(ResumeMismatchError, match="version 2"):
            run_stream(events, SPEC, out, resume=True)

    def test_fresh_run_clears_stale_checkpoints(self, events, baseline, tmp_path):
        out = tmp_path / "run"
        with injected_faults(
            [Fault("stream:shard:1", "raise")], tmp_path / "state"
        ):
            with pytest.raises(InjectedFault):
                run_stream(events, SPEC, out)
        # Re-running *without* --resume must not trust the old cache.
        result = run_stream(events[: len(events) - 20], SPEC, out)
        assert result.events_consumed == len(events) - 20
        assert result.report_path.read_bytes() != baseline[1]
