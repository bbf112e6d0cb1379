"""Structured emission: JSONL traces and per-phase rollups.

:func:`write_trace` serializes one :class:`~repro.obs.core.ObsSession` to
the schema of :mod:`repro.obs.schema`: manifest first, then spans (in
completion order), counters, series and events, and the rollup last.
:func:`phase_rollup` is the span aggregation the rollup line and the
benchmark JSON reports share.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Mapping

from .core import ObsSession
from .schema import dump_line, manifest_line, rollup_line

__all__ = ["phase_rollup", "trace_lines", "write_trace"]


def phase_rollup(spans: Iterable[Mapping[str, Any]]) -> dict[str, dict]:
    """Aggregate spans by name: count, total wall seconds, total CPU seconds.

    Nested spans each contribute their own totals (no double-count removal
    — a phase's wall time includes its children's, as in any trace viewer).
    """
    phases: dict[str, dict] = {}
    for span in spans:
        agg = phases.setdefault(
            span["name"], {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
        )
        agg["count"] += 1
        agg["wall_s"] += float(span["wall_s"])
        agg["cpu_s"] += float(span["cpu_s"])
    for agg in phases.values():
        agg["wall_s"] = round(agg["wall_s"], 6)
        agg["cpu_s"] = round(agg["cpu_s"], 6)
    return phases


def trace_lines(
    session: ObsSession, manifest: Mapping[str, Any] | None = None
) -> list[dict]:
    """The session's trace as a list of schema-conforming line objects.

    ``manifest`` defaults to the session's own ``manifest`` dict; either
    way the emitted copy is stamped with ``type`` and ``schema_version``.
    """
    spans = session.spans
    head = manifest_line(manifest if manifest is not None else session.manifest)
    lines: list[dict] = [head]
    lines.extend(spans)
    counters = session.counters
    for name in sorted(counters):
        lines.append({"type": "counter", "name": name, "value": counters[name]})
    series = session.series
    for name in sorted(series):
        lines.append({"type": "series", "name": name, "values": series[name]})
    histograms = session.histograms
    for name in sorted(histograms):
        line: dict[str, Any] = {"type": "histogram", "name": name}
        line.update(histograms[name].to_payload())
        lines.append(line)
    lines.extend(session.events)
    lines.append(
        rollup_line(
            phases=phase_rollup(spans),
            counters=counters,
            histograms={
                name: histograms[name].summary() for name in sorted(histograms)
            },
            n_spans=len(spans),
            n_events=len(session.events),
        )
    )
    return lines


def write_trace(
    path: str | Path,
    session: ObsSession,
    manifest: Mapping[str, Any] | None = None,
) -> Path:
    """Write the session's JSONL trace to ``path`` and return it."""
    path = Path(path)
    with path.open("w") as handle:
        for line in trace_lines(session, manifest):
            handle.write(dump_line(line))
    return path
