"""The stream consumer: window advance -> drift check -> re-selection.

Ties the streaming pieces to the resumable runtime (PR 3).  One
:func:`run_stream` call consumes an event sequence, advancing a
:class:`~repro.streaming.window.SlidingWindowCounts` per event; every
sealed shard triggers a drift evaluation, and only a drifted (or
baseline-less) window pays for the expensive path — TopKMiner over the
live window followed by MMRFS — after which the selected patterns
become the new tracked set and the drift baseline is rebased.

Every seal is checkpointed through the content-addressed
:class:`~repro.runtime.cache.ArtifactCache` *before* its fault point,
so a consumer killed mid-stream resumes from the last sealed shard and
produces a byte-identical ``stream_report.json`` — the same
byte-identity contract ``repro experiment --resume`` honors, pinned by
the fault-injected CI job.  A seal's record holds only what the seal
changed (its shard, the counters, its ``windows`` entry and, when it
re-selected, the new tracked set); the last seal of a stream records
the full state.  Resume replays the records in seal order.

Under an :mod:`repro.obs` session every seal opens a ``streaming.count``,
a ``streaming.drift`` and a ``runtime.checkpoint`` span, and a
re-selecting seal a ``streaming.topk`` (from :meth:`TopKMiner.mine`) and
a ``streaming.select`` span, all children of ``streaming.run``: the layer
names perfbench reports.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..measures.bounds import BoundMode
from ..obs import core as _obs
from ..runtime.cache import ArtifactCache, content_key, dump_json, fingerprint
from ..runtime.experiment import ResumeMismatchError, ResumeMissingError
from ..selection.mmrfs import mmrfs
from ..io.serialize import selection_to_json
from ..testing import faults as _faults
from .drift import DriftMonitor
from .topk import TopKMiner
from .window import SlidingWindowCounts

__all__ = ["StreamSpec", "StreamResult", "run_stream", "stream_fingerprint"]

_STREAM_FORMAT_VERSION = 1
_MANIFEST_NAME = "stream_run.json"
_REPORT_NAME = "stream_report.json"
_SHARD_STAGE = "stream_shard"

Event = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class StreamSpec:
    """Everything that determines a stream run's outcome.

    The spec plus the event sequence's content key is the run's
    fingerprint — equal fingerprints produce byte-identical reports,
    which is what ``--resume`` checks before trusting a checkpoint.
    """

    n_items: int
    n_classes: int
    k: int = 20
    min_length: int = 1
    max_length: int | None = 4
    shard_rows: int = 32
    window_shards: int = 8
    drift_tolerance: float = 0.05
    delta: int = 1
    relevance: str = "information_gain"
    #: Passed to :class:`TopKMiner`, where it has no effect on the search;
    #: kept because it is part of every stream fingerprint.
    bound_mode: BoundMode = "paper"
    frontier_cap: int | None = None


@dataclass
class StreamResult:
    """Outcome of one (possibly resumed) stream run."""

    out_dir: Path
    fingerprint: str
    events_consumed: int
    seals: int
    n_reselections: int
    report_path: Path
    report: dict[str, Any] = field(repr=False)


def stream_fingerprint(spec: StreamSpec, events: Sequence[Event]) -> str:
    """The run's identity: spec plus event-sequence content key.

    JSON writes a tuple as it writes a list, and ``tuple()`` of a tuple
    copies nothing, so the events encode without a per-event copy.
    """
    return fingerprint(
        format=_STREAM_FORMAT_VERSION,
        spec=asdict(spec),
        events=content_key([(tuple(items), int(label)) for items, label in events]),
    )


def _write_manifest(path: Path, spec: StreamSpec, key: str, n_events: int) -> None:
    dump_json(
        {
            "format_version": _STREAM_FORMAT_VERSION,
            "kind": "stream",
            "fingerprint": key,
            "spec": asdict(spec),
            "n_events": n_events,
        },
        path,
    )


def _check_resumable(path: Path, key: str) -> None:
    """Validate an existing stream manifest against this run's identity."""
    if not path.exists():
        raise ResumeMissingError(
            f"cannot resume: no stream manifest at {path} "
            "(was this directory produced by 'repro stream'?)"
        )
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ResumeMismatchError(
            f"cannot resume: stream manifest {path} is not valid JSON ({exc})"
        ) from exc
    if (
        manifest.get("format_version") != _STREAM_FORMAT_VERSION
        or manifest.get("kind") != "stream"
    ):
        raise ResumeMismatchError(
            f"cannot resume: unsupported stream manifest in {path}"
        )
    found = manifest.get("fingerprint")
    if found != key:
        raise ResumeMismatchError(
            "cannot resume: stream directory was produced by a different "
            f"spec or event sequence (fingerprint {found!r} != {key!r}); "
            "rerun without --resume to start fresh"
        )


class _StreamState:
    """Mutable consumer state; everything a checkpoint must capture."""

    def __init__(self, spec: StreamSpec) -> None:
        self.spec = spec
        self.window = SlidingWindowCounts(
            n_items=spec.n_items,
            n_classes=spec.n_classes,
            shard_rows=spec.shard_rows,
            window_shards=spec.window_shards,
        )
        self.monitor = DriftMonitor(tolerance=spec.drift_tolerance)
        self.events_consumed = 0
        self.seals = 0
        self.n_reselections = 0
        self.topk_json: dict[str, Any] | None = None
        self.selection_json: dict[str, Any] | None = None
        self.windows: list[dict[str, Any]] = []

    def to_payload(self, epoch: int) -> dict[str, Any]:
        return {
            "format_version": _STREAM_FORMAT_VERSION,
            "epoch": epoch,
            "events_consumed": self.events_consumed,
            "seals": self.seals,
            "n_reselections": self.n_reselections,
            "window": self.window.to_payload(),
            "monitor": self.monitor.to_payload(),
            "topk": self.topk_json,
            "selection": self.selection_json,
            "windows": self.windows,
        }

    def delta_payload(self, epoch: int) -> dict[str, Any]:
        """What seal ``epoch`` changed, for :meth:`replay`.

        The shard that just sealed, the counters and this seal's
        ``windows`` entry; on a re-selecting seal also the new tracked
        set and the monitor, top-k and selection that
        :func:`_advance` rebuilt with it.  Nothing else changes at a
        seal.
        """
        entry = self.windows[-1]
        payload: dict[str, Any] = {
            "format_version": _STREAM_FORMAT_VERSION,
            "epoch": epoch,
            "events_consumed": self.events_consumed,
            "seals": self.seals,
            "n_reselections": self.n_reselections,
            "shard": self.window.shard_payload(epoch),
            "windows_entry": entry,
        }
        if entry["reselected"]:
            payload.update(
                patterns=[list(p) for p in self.window.patterns],
                monitor=self.monitor.to_payload(),
                topk=self.topk_json,
                selection=self.selection_json,
            )
        return payload

    def replay(self, payload: dict[str, Any]) -> None:
        """Apply one checkpoint record, full (:meth:`to_payload`) or delta."""
        if payload.get("format_version") != _STREAM_FORMAT_VERSION:
            raise ResumeMismatchError(
                "cannot resume: unsupported stream checkpoint version "
                f"{payload.get('format_version')!r} at seal {payload.get('epoch')!r}"
            )
        if "window" in payload:
            self.window = SlidingWindowCounts.from_payload(payload["window"])
            self.windows = list(payload["windows"])
        else:
            self.window.restore_shard(payload["shard"])
            self.windows.append(payload["windows_entry"])
            if "patterns" in payload:
                self.window.track(payload["patterns"])
        if "monitor" in payload:
            self.monitor = DriftMonitor.from_payload(payload["monitor"])
            self.topk_json = payload["topk"]
            self.selection_json = payload["selection"]
        self.events_consumed = int(payload["events_consumed"])
        self.seals = int(payload["seals"])
        self.n_reselections = int(payload["n_reselections"])


def _advance(state: _StreamState, epoch: int) -> None:
    """One window advance: drift check, optional re-selection, summary."""
    spec = state.spec
    window = state.window
    started = time.perf_counter()
    with _obs.span("streaming.count", epoch=epoch):
        counts = window.counts()
        class_totals = window.class_totals()
    had_baseline = state.monitor.has_baseline
    with _obs.span("streaming.drift", epoch=epoch):
        report = state.monitor.evaluate(counts, class_totals)
    reselected = False
    if report.drifted:
        data = window.window_dataset(name=f"stream-window-{epoch}")
        miner = TopKMiner(
            k=spec.k,
            min_length=spec.min_length,
            max_length=spec.max_length,
            frontier_cap=spec.frontier_cap,
            bound_mode=spec.bound_mode,
        )
        # TopKMiner.mine opens the streaming.topk span itself.
        topk = miner.mine(data)
        with _obs.span("streaming.select", epoch=epoch):
            selection = mmrfs(
                topk.patterns,
                data,
                relevance=spec.relevance,
                delta=spec.delta,
            )
        window.track([p.items for p in selection.patterns])
        state.monitor.rebase(window.counts(), class_totals)
        state.topk_json = topk.to_json()
        state.selection_json = selection_to_json(selection)
        state.n_reselections += 1
        reselected = True
        _obs.add("streaming.reselections")
        _obs.event(
            "streaming",
            f"re-selection at epoch {epoch}",
            epoch=epoch,
            max_shift=report.max_shift if had_baseline else None,
            n_selected=len(selection.patterns),
        )
    state.seals += 1
    state.windows.append(
        {
            "epoch": epoch,
            "window_rows": window.window_rows,
            "reselected": reselected,
            # inf (no baseline yet) is not valid strict JSON; None marks
            # "first evaluation" in the report instead.
            "max_shift": report.max_shift if had_baseline else None,
            "n_tracked": report.n_tracked,
        }
    )
    _obs.add("streaming.seals")
    _obs.observe("streaming.window_advance_s", time.perf_counter() - started)


def _final_report(state: _StreamState, key: str, n_events: int) -> dict[str, Any]:
    window = state.window
    counts = window.counts()
    return {
        "format_version": _STREAM_FORMAT_VERSION,
        "fingerprint": key,
        "spec": asdict(state.spec),
        "n_events": n_events,
        "events_consumed": state.events_consumed,
        "seals": state.seals,
        "n_reselections": state.n_reselections,
        "window_rows": window.window_rows,
        "tracked": [
            {"items": list(items), "class_counts": [int(c) for c in counts[i]]}
            for i, items in enumerate(window.patterns)
        ],
        "class_totals": [int(c) for c in window.class_totals()],
        "topk": state.topk_json,
        "selection": state.selection_json,
        "windows": state.windows,
    }


def run_stream(
    events: Sequence[Event],
    spec: StreamSpec,
    out_dir: str | Path,
    resume: bool = False,
) -> StreamResult:
    """Consume ``events`` through the windowed mining loop.

    Deterministic by construction: the report depends only on
    ``(spec, events)``, never on timing, so a fresh run and a
    kill/resume run write byte-identical ``stream_report.json``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / _MANIFEST_NAME
    report_path = out_dir / _REPORT_NAME
    key = stream_fingerprint(spec, events)
    cache = ArtifactCache(out_dir / "cache")

    with _obs.span(
        "streaming.run", events=len(events), resume=bool(resume)
    ) as run_span:
        if resume:
            _check_resumable(manifest_path, key)
            state = _load_latest_checkpoint(cache, key, spec)
        else:
            cache.clear()
            if report_path.exists():
                report_path.unlink()
            _write_manifest(manifest_path, spec, key, len(events))
            state = _StreamState(spec)

        # Progress heartbeats: per-seal done/total counters plus an ETA
        # series, so a long stream is observable while it runs.  ETA is
        # computed from this run's own throughput (a resumed run does
        # not pay for events a previous process already consumed).
        progress_started = time.perf_counter()
        resumed_at = state.events_consumed
        _obs.add("progress.stream.events_total", len(events))
        if spec.shard_rows > 0:
            _obs.add(
                "progress.stream.seals_total", len(events) // spec.shard_rows
            )
        if resumed_at:
            _obs.add("progress.stream.events_done", resumed_at)

        for items, label in events[state.events_consumed :]:
            sealed = state.window.append(items, label)
            state.events_consumed += 1
            _obs.add("streaming.events")
            _obs.add("progress.stream.events_done")
            if sealed is None:
                continue
            _advance(state, sealed)
            _obs.add("progress.stream.seals_done")
            processed = state.events_consumed - resumed_at
            if processed > 0:
                elapsed = time.perf_counter() - progress_started
                remaining = len(events) - state.events_consumed
                _obs.record(
                    "progress.stream.eta_s", elapsed * remaining / processed
                )
            # Checkpoint first, then the fault seam: a kill at the seam
            # finds this shard durable and resumes after it.  The last
            # seal records the full state, so a finished directory's
            # last record stands alone.
            if len(events) - state.events_consumed < spec.shard_rows:
                record = state.to_payload(sealed)
            else:
                record = state.delta_payload(sealed)
            with _obs.span("runtime.checkpoint", epoch=sealed):
                cache.put(_SHARD_STAGE, fingerprint(run=key, seal=sealed), record)
            _faults.fault_point("stream", f"shard:{sealed}")

        report = _final_report(state, key, len(events))
        dump_json(report, report_path)
        run_span.set(
            seals=state.seals,
            reselections=state.n_reselections,
            consumed=state.events_consumed,
        )

    return StreamResult(
        out_dir=out_dir,
        fingerprint=key,
        events_consumed=state.events_consumed,
        seals=state.seals,
        n_reselections=state.n_reselections,
        report_path=report_path,
        report=report,
    )


def _load_latest_checkpoint(
    cache: ArtifactCache, key: str, spec: StreamSpec
) -> _StreamState:
    """Rebuild the state after the last durable seal by replaying the chain.

    Seals are numbered densely from 0, so reading upward until the first
    miss walks every record in seal order.  A delta record appends its
    shard (evicting as ``append`` does), re-tracks on a re-selecting
    seal and appends its ``windows`` entry; a full record — the last
    seal of a stream, or any seal written before delta records
    existed — replaces the state outright, so older directories still
    resume.  A record of another format version raises
    :class:`~repro.runtime.experiment.ResumeMismatchError`, and a
    corrupt artifact along the way propagates
    :class:`~repro.runtime.cache.CorruptArtifactError` (exit codes 4
    and 5 at the CLI, same as ``repro experiment``).
    """
    state = _StreamState(spec)
    seal = 0
    while True:
        payload = cache.get(_SHARD_STAGE, fingerprint(run=key, seal=seal))
        if payload is None:
            break
        state.replay(payload)
        seal += 1
    if seal:
        _obs.event(
            "streaming",
            f"resumed from sealed shard {seal - 1}",
            epoch=seal - 1,
            events_consumed=state.events_consumed,
        )
    return state
