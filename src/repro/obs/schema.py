"""The JSONL trace schema, and a zero-dependency validator for it.

A trace file is newline-delimited JSON.  Line types:

``manifest``
    Exactly one, first line.  Run identity: command, config, seed,
    ``git_sha``, python/platform, datasets touched.  Carries
    ``schema_version``.
``span``
    One finished span: ``name``, ``id``, ``parent`` (id or null),
    ``start_unix``, ``wall_s``, ``cpu_s``, ``rss_kb`` (KiB or null),
    ``pid``, ``thread``, ``attrs``.
``counter``
    One accumulated counter: ``name``, ``value``.
``series``
    One recorded sequence: ``name``, ``values`` (list of numbers).
``histogram``
    One fixed log-bucket distribution (schema v2+): ``name``, ``subdiv``,
    ``counts`` (bucket index -> count), ``zeros``, ``count``, ``sum``,
    ``min``/``max`` (numbers, or null when empty).
``event``
    One structured event: ``kind``, ``message``, ``time_unix``, ``attrs``.
``rollup``
    Exactly one, last line.  Per-phase aggregation (``phases``: name ->
    ``{count, wall_s, cpu_s}``) plus the counters again — and, from v2,
    ``histograms`` (name -> percentile summary) — for one-line consumers
    like the benchmark JSON reports.

Version history: v1 (PR 2) has no histogram lines; v2 adds them plus the
rollup's ``histograms`` key.  The validator (and every consumer —
``repro report``, ``repro trace diff``) accepts both versions: a v1 trace
simply carries no distribution data.  Emission always writes the current
:data:`SCHEMA_VERSION`.

A session trace (:mod:`repro.obs.emit`) and a streamed serving event log
build their lines with the same :func:`manifest_line`,
:func:`event_line`, :func:`rollup_line` and :func:`dump_line`.

The validator enforces structure, types and referential integrity (every
span's ``parent`` must be null or the id of some span in the file); it is
what ``repro report`` and the CI observability job run against emitted
traces.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "dump_line",
    "event_line",
    "manifest_line",
    "rollup_line",
    "validate_lines",
    "validate_file",
]

SCHEMA_VERSION = 2

#: Versions the validator and all trace consumers accept.
SUPPORTED_VERSIONS = (1, 2)

_NUMERIC = (int, float)

_MANIFEST_KEYS = {
    "schema_version",
    "command",
    "argv",
    "config",
    "git_sha",
    "python",
    "platform",
    "started_unix",
    "datasets",
}
_SPAN_KEYS = {
    "name",
    "id",
    "parent",
    "start_unix",
    "wall_s",
    "cpu_s",
    "rss_kb",
    "pid",
    "thread",
    "attrs",
}


def manifest_line(manifest: Mapping[str, Any]) -> dict[str, Any]:
    """The trace's first line: ``manifest`` stamped with ``type`` and
    :data:`SCHEMA_VERSION`, with every key the validator requires even
    for a hand-rolled manifest."""
    head = {**manifest, "type": "manifest", "schema_version": SCHEMA_VERSION}
    for key, default in (
        ("command", "unknown"),
        ("argv", []),
        ("config", {}),
        ("git_sha", None),
        ("python", ""),
        ("platform", ""),
        ("started_unix", 0.0),
        ("datasets", []),
    ):
        head.setdefault(key, default)
    return head


def event_line(kind: str, message: str, attrs: Mapping[str, Any]) -> dict[str, Any]:
    """One ``event`` line, stamped with the current time and pid."""
    return {
        "type": "event",
        "kind": kind,
        "message": message,
        "time_unix": time.time(),
        "pid": os.getpid(),
        "attrs": dict(attrs),
    }


def rollup_line(
    phases: Mapping[str, Any],
    counters: Mapping[str, int | float],
    histograms: Mapping[str, Mapping[str, Any]],
    n_spans: int,
    n_events: int,
) -> dict[str, Any]:
    """The trace's last line; ``histograms`` maps names to summaries."""
    return {
        "type": "rollup",
        "phases": dict(phases),
        "counters": dict(counters),
        "histograms": {name: dict(summary) for name, summary in histograms.items()},
        "n_spans": n_spans,
        "n_events": n_events,
    }


def dump_line(line: Mapping[str, Any]) -> str:
    """One line object as its JSONL text (sorted keys, newline-ended)."""
    return json.dumps(line, sort_keys=True, default=str) + "\n"


def _check_span(line_no: int, obj: dict, errors: list[str]) -> None:
    missing = _SPAN_KEYS - obj.keys()
    if missing:
        errors.append(f"line {line_no}: span missing keys {sorted(missing)}")
        return
    if not isinstance(obj["name"], str) or not obj["name"]:
        errors.append(f"line {line_no}: span name must be a non-empty string")
    if not isinstance(obj["id"], str):
        errors.append(f"line {line_no}: span id must be a string")
    if obj["parent"] is not None and not isinstance(obj["parent"], str):
        errors.append(f"line {line_no}: span parent must be null or a string")
    for key in ("start_unix", "wall_s", "cpu_s"):
        if not isinstance(obj[key], _NUMERIC) or isinstance(obj[key], bool):
            errors.append(f"line {line_no}: span {key} must be numeric")
        elif key != "start_unix" and obj[key] < 0:
            errors.append(f"line {line_no}: span {key} must be >= 0")
    if obj["rss_kb"] is not None and not isinstance(obj["rss_kb"], int):
        errors.append(f"line {line_no}: span rss_kb must be null or an integer")
    if not isinstance(obj["attrs"], dict):
        errors.append(f"line {line_no}: span attrs must be an object")


def validate_lines(lines: Iterable[str]) -> list[str]:
    """Validate one trace's JSONL content; returns a list of error strings.

    An empty list means the trace conforms to :data:`SCHEMA_VERSION`.
    """
    errors: list[str] = []
    parsed: list[tuple[int, dict]] = []
    for line_no, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            errors.append(f"line {line_no}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
            errors.append(f"line {line_no}: every line must be an object with a 'type'")
            continue
        parsed.append((line_no, obj))

    if not parsed:
        return errors + ["trace is empty"]

    types = [obj["type"] for _, obj in parsed]
    known = {"manifest", "span", "counter", "series", "histogram", "event", "rollup"}
    for (line_no, obj), type_name in zip(parsed, types):
        if type_name not in known:
            errors.append(f"line {line_no}: unknown line type {type_name!r}")

    if types[0] != "manifest":
        errors.append("line 1: first line must be the manifest")
    if types.count("manifest") != 1:
        errors.append("trace must contain exactly one manifest line")
    if types.count("rollup") != 1:
        errors.append("trace must contain exactly one rollup line")
    elif types[-1] != "rollup":
        errors.append("the rollup must be the last line")

    span_ids: set[str] = set()
    for (line_no, obj), type_name in zip(parsed, types):
        if type_name == "span" and isinstance(obj.get("id"), str):
            span_ids.add(obj["id"])

    declared_version = SCHEMA_VERSION
    for (line_no, obj), type_name in zip(parsed, types):
        if type_name == "manifest":
            if obj.get("schema_version") not in SUPPORTED_VERSIONS:
                errors.append(
                    f"line {line_no}: manifest schema_version must be one of "
                    f"{SUPPORTED_VERSIONS}, got {obj.get('schema_version')!r}"
                )
            else:
                declared_version = int(obj["schema_version"])
            missing = _MANIFEST_KEYS - obj.keys()
            if missing:
                errors.append(
                    f"line {line_no}: manifest missing keys {sorted(missing)}"
                )
        elif type_name == "span":
            _check_span(line_no, obj, errors)
            parent = obj.get("parent")
            if isinstance(parent, str) and parent not in span_ids:
                errors.append(
                    f"line {line_no}: span parent {parent!r} not found in trace"
                )
        elif type_name == "counter":
            if not isinstance(obj.get("name"), str):
                errors.append(f"line {line_no}: counter name must be a string")
            value = obj.get("value")
            if not isinstance(value, _NUMERIC) or isinstance(value, bool):
                errors.append(f"line {line_no}: counter value must be numeric")
        elif type_name == "series":
            if not isinstance(obj.get("name"), str):
                errors.append(f"line {line_no}: series name must be a string")
            values = obj.get("values")
            if not isinstance(values, list) or any(
                not isinstance(v, _NUMERIC) or isinstance(v, bool) for v in values
            ):
                errors.append(
                    f"line {line_no}: series values must be a list of numbers"
                )
        elif type_name == "histogram":
            if declared_version < 2:
                errors.append(
                    f"line {line_no}: histogram lines require schema_version"
                    " >= 2"
                )
            if not isinstance(obj.get("name"), str):
                errors.append(f"line {line_no}: histogram name must be a string")
            if not isinstance(obj.get("subdiv"), int) or obj.get("subdiv", 0) < 1:
                errors.append(
                    f"line {line_no}: histogram subdiv must be a positive integer"
                )
            counts = obj.get("counts")
            if not isinstance(counts, dict) or any(
                not isinstance(n, int) or isinstance(n, bool) or n < 0
                for n in counts.values()
            ):
                errors.append(
                    f"line {line_no}: histogram counts must map bucket "
                    "indices to non-negative integers"
                )
            for key in ("zeros", "count"):
                if not isinstance(obj.get(key), int) or isinstance(
                    obj.get(key), bool
                ):
                    errors.append(
                        f"line {line_no}: histogram {key} must be an integer"
                    )
            if not isinstance(obj.get("sum"), _NUMERIC) or isinstance(
                obj.get("sum"), bool
            ):
                errors.append(f"line {line_no}: histogram sum must be numeric")
            for key in ("min", "max"):
                bound = obj.get(key, "absent")
                if bound == "absent" or (
                    bound is not None
                    and (not isinstance(bound, _NUMERIC) or isinstance(bound, bool))
                ):
                    errors.append(
                        f"line {line_no}: histogram {key} must be numeric or null"
                    )
        elif type_name == "event":
            for key, kind in (("kind", str), ("message", str)):
                if not isinstance(obj.get(key), kind):
                    errors.append(f"line {line_no}: event {key} must be a string")
        elif type_name == "rollup":
            phases = obj.get("phases")
            if not isinstance(phases, dict):
                errors.append(f"line {line_no}: rollup phases must be an object")
            else:
                for name, agg in phases.items():
                    if not isinstance(agg, dict) or not {
                        "count",
                        "wall_s",
                        "cpu_s",
                    } <= agg.keys():
                        errors.append(
                            f"line {line_no}: rollup phase {name!r} must have "
                            "count/wall_s/cpu_s"
                        )
            if not isinstance(obj.get("counters"), dict):
                errors.append(f"line {line_no}: rollup counters must be an object")
    return errors


def validate_file(path: str | Path) -> list[str]:
    """Validate a trace file on disk; returns a list of error strings."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    return validate_lines(text.splitlines())
