"""`repro stream` CLI: exit codes, resume plumbing, and the golden fixture.

The golden fixture (``tests/data/stream_window_v1.jsonl``) mirrors the
``trace_v1.jsonl`` pattern: a checked-in seeded event stream whose
expected top-k listing and report digest are embedded in the file, so
any refactor that drifts the top-k output — ranking, IG floats, window
semantics, report layout — fails byte-for-byte, not approximately.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import (
    EXIT_CORRUPT_CHECKPOINT,
    EXIT_MISSING_INPUT,
    EXIT_SCHEMA_INVALID,
    main,
)
from repro.runtime.cache import canonical_json
from repro.streaming import StreamSpec, run_stream
from repro.testing.faults import corrupt_artifact

FIXTURE = Path(__file__).parent / "data" / "stream_window_v1.jsonl"
#: The fixture's CLI run killed at ``stream:shard:3`` by the code that
#: recorded the full state at every seal (manifest plus seals 0-3).
FULL_RECORD_CHECKPOINT = Path(__file__).parent / "data" / "stream_ckpt_v1"


def load_fixture():
    lines = [
        json.loads(line)
        for line in FIXTURE.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    manifest, events, expected = lines[0], lines[1:-1], lines[-1]["expected"]
    assert manifest["format"] == "repro.streaming.window/v1"
    return (
        StreamSpec(**manifest["spec"]),
        [(tuple(e["items"]), e["label"]) for e in events],
        expected,
    )


def write_events(path: Path, events) -> Path:
    path.write_text(
        "\n".join(
            json.dumps({"items": list(items), "label": label})
            for items, label in events
        )
        + "\n",
        encoding="utf-8",
    )
    return path


class TestGoldenFixture:
    def test_fixture_reproduces_byte_for_byte(self, tmp_path):
        spec, events, expected = load_fixture()
        result = run_stream(events, spec, tmp_path / "run")
        assert result.fingerprint == expected["fingerprint"]
        assert result.seals == expected["seals"]
        assert result.n_reselections == expected["n_reselections"]
        assert canonical_json(result.report["topk"]) == canonical_json(
            expected["topk"]
        )
        digest = hashlib.sha256(result.report_path.read_bytes()).hexdigest()
        assert digest == expected["report_sha256"]

    def test_full_record_checkpoint_resumes_to_the_golden_report(self, tmp_path):
        spec, events, expected = load_fixture()
        out = tmp_path / "run"
        shutil.copytree(FULL_RECORD_CHECKPOINT, out)
        records = sorted((out / "cache" / "stream_shard").glob("*.json"))
        assert len(records) == 4
        assert all('"window":' in path.read_text() for path in records)
        result = run_stream(events, spec, out, resume=True)
        assert result.events_consumed == len(events)
        digest = hashlib.sha256(result.report_path.read_bytes()).hexdigest()
        assert digest == expected["report_sha256"]

    def test_fixture_shows_drift_gating_both_ways(self):
        _, _, expected = load_fixture()
        # A useful fixture exercises both branches: some windows re-select,
        # some are suppressed by the drift tolerance.
        assert 0 < expected["n_reselections"] < expected["seals"]

    def test_cli_consumes_the_fixture_directly(self, tmp_path, capsys):
        spec, _, expected = load_fixture()
        rc = main(
            [
                "stream",
                str(FIXTURE),
                "--out",
                str(tmp_path / "run"),
                "--k", str(spec.k),
                "--max-length", str(spec.max_length),
                "--shard-rows", str(spec.shard_rows),
                "--window-shards", str(spec.window_shards),
                "--drift-tolerance", str(spec.drift_tolerance),
                "--delta", str(spec.delta),
                "--n-items", str(spec.n_items),
                "--n-classes", str(spec.n_classes),
                "--json",
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["fingerprint"] == expected["fingerprint"]
        assert summary["seals"] == expected["seals"]
        report = (tmp_path / "run" / "stream_report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == expected["report_sha256"]


class TestExitCodes:
    def test_missing_input_is_3(self, tmp_path):
        rc = main(
            ["stream", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_MISSING_INPUT

    def test_invalid_json_line_is_4(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"items": [0], "label": 0}\n{not json\n', encoding="utf-8")
        rc = main(["stream", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA_INVALID

    @pytest.mark.parametrize(
        "line",
        [
            '{"items": "nope", "label": 0}',
            '{"items": [0, -1], "label": 0}',
            '{"items": [0], "label": -2}',
            '{"items": [0], "label": true}',
            '{"items": [0]}',
            "[0, 1]",
        ],
    )
    def test_schema_invalid_event_is_4(self, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n", encoding="utf-8")
        rc = main(["stream", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA_INVALID

    def test_resume_without_run_dir_is_3(self, tmp_path):
        events_file = write_events(
            tmp_path / "events.jsonl", [((0, 1), 0), ((1, 2), 1)]
        )
        rc = main(
            ["stream", str(events_file), "--out", str(tmp_path / "o"), "--resume"]
        )
        assert rc == EXIT_MISSING_INPUT

    def test_resume_with_changed_spec_is_4(self, tmp_path):
        events = [((i % 3, (i + 1) % 3), i % 2) for i in range(12)]
        events_file = write_events(tmp_path / "events.jsonl", events)
        out = tmp_path / "run"
        assert main(
            ["stream", str(events_file), "--out", str(out), "--shard-rows", "4"]
        ) == 0
        rc = main(
            [
                "stream", str(events_file), "--out", str(out),
                "--shard-rows", "5", "--resume",
            ]
        )
        assert rc == EXIT_SCHEMA_INVALID

    def test_corrupt_checkpoint_is_5(self, tmp_path):
        events = [((i % 4, (i + 1) % 4), i % 2) for i in range(20)]
        events_file = write_events(tmp_path / "events.jsonl", events)
        out = tmp_path / "run"
        assert main(
            ["stream", str(events_file), "--out", str(out), "--shard-rows", "5"]
        ) == 0
        shard_dir = out / "cache" / "stream_shard"
        artifacts = sorted(shard_dir.glob("*.json"))
        assert artifacts
        corrupt_artifact(artifacts[0])
        rc = main(
            [
                "stream", str(events_file), "--out", str(out),
                "--shard-rows", "5", "--resume",
            ]
        )
        assert rc == EXIT_CORRUPT_CHECKPOINT


class TestCliBehavior:
    def test_prose_summary_and_derived_dimensions(self, tmp_path, capsys):
        events = [((i % 5,), i % 2) for i in range(15)]
        events_file = write_events(tmp_path / "events.jsonl", events)
        rc = main(
            [
                "stream", str(events_file), "--out", str(tmp_path / "run"),
                "--shard-rows", "5", "--window-shards", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "15 events" in out
        assert "3 window advances" in out
        report = json.loads(
            (tmp_path / "run" / "stream_report.json").read_text(encoding="utf-8")
        )
        # Dimensions derived from the events: items 0-4, labels 0-1.
        assert report["spec"]["n_items"] == 5
        assert report["spec"]["n_classes"] == 2

    def test_metadata_lines_are_skipped(self, tmp_path):
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(
            '{"format": "repro.streaming.window/v1", "spec": {}}\n'
            '{"items": [0], "label": 0}\n'
            '{"items": [1], "label": 1}\n'
            '{"expected": {"anything": true}}\n',
            encoding="utf-8",
        )
        rc = main(
            [
                "stream", str(mixed), "--out", str(tmp_path / "run"),
                "--shard-rows", "2", "--json",
            ]
        )
        assert rc == 0
        report = json.loads(
            (tmp_path / "run" / "stream_report.json").read_text(encoding="utf-8")
        )
        assert report["events_consumed"] == 2
