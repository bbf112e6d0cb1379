"""Live serving telemetry: windowed metrics, request traces, SLO alerts.

:class:`ServingTelemetry` is the one account of a
:class:`~repro.serving.frontend.ServingFrontend`'s requests:
:meth:`~ServingTelemetry.record_request` records each one once, and
``stats()``, the snapshot, ``/metrics``, the event-log rollup and the
active :mod:`repro.obs` session's ``serving.*`` metrics are views of
that record.  It answers "since start" as well as the operational
questions — *what is p99 right now*, *did the error rate move in the
last minute* — for a long-running process:

* **one slice ring** (:class:`~repro.obs.live.SliceRing`): each slice is
  a :class:`RequestSlice` — latency / queue-wait / execute / batch-size
  histograms plus the request, row, error, cancelled and dropped-item
  counts — so a request is one record under one lock into one epoch.
  A snapshot merges the live slices once and divides every windowed
  rate by the same covered seconds; old traffic ages out of the window
  into the ring's retired slice, which the lifetime totals read;
* **per-request tracing**: the frontend reports every completed request
  (monotonic ``request_id``, queue-wait vs execute split, row count,
  dropped-unknown-item count, outcome ok/error/cancelled).  A
  deterministic 1-in-``sample_every`` sample (``request_id %
  sample_every == 0``) is kept in a bounded in-memory list and
  optionally appended to a :class:`TraceEventLog` — a JSONL sink whose
  lines come from the trace schema's own builders, so ``repro report``
  can read a serving event log like any other trace;
* **SLO monitoring**: declarative :class:`~repro.obs.live.SloRule`
  thresholds over the windowed values (``p99_latency_s``,
  ``error_rate``, ``queue_saturation``, ``requests_per_s``), evaluated
  once per window rotation with firing/resolved transitions and breach
  counters surfaced in the snapshot;
* **exposition**: :meth:`snapshot` returns a plain, JSON-stable dict,
  and :func:`render_prometheus` renders the same data as
  Prometheus-style text — the two bodies the
  :mod:`~repro.serving.http_stats` endpoint serves.

Everything takes an injectable ``clock`` so rotation, eviction and SLO
transitions are deterministic under test.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from ..obs import core as _obs
from ..obs.live import DEFAULT_SLICE_SECONDS, SliceRing, SloMonitor, SloRule
from ..obs.manifest import build_manifest
from ..obs.metrics import Histogram
from ..obs.schema import dump_line, event_line, manifest_line, rollup_line

__all__ = [
    "SNAPSHOT_SCHEMA",
    "RequestSlice",
    "ServingTelemetry",
    "TelemetryConfig",
    "TraceEventLog",
    "render_prometheus",
]

#: Identifier stamped on every snapshot so consumers can detect drift.
SNAPSHOT_SCHEMA = "repro.serving.telemetry/v1"

#: Sampled request records kept in memory for the snapshot.
_MAX_SAMPLES = 256


@dataclass(frozen=True)
class TelemetryConfig:
    """Slice width, sampling, and SLO rules for one telemetry unit (the
    window always holds :data:`~repro.obs.live.DEFAULT_SLICES` slices)."""

    slice_seconds: float = DEFAULT_SLICE_SECONDS
    sample_every: int = 16
    slos: tuple[SloRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


class TraceEventLog:
    """A streaming JSONL sink of serving request events.

    The file it produces is a *valid schema-v2 trace*: one manifest
    line, then one ``event`` line per appended record, then one rollup
    line on :meth:`close` — so ``repro report`` renders a serving event
    log and ``repro.obs.validate_file`` accepts it.  Every line is built
    by the same :mod:`repro.obs.schema` builder a session trace uses.
    Lines are flushed as written; a crash loses only the rollup, not the
    events.
    """

    def __init__(
        self,
        path: str | Path,
        command: str = "serve",
        config: Mapping[str, Any] | None = None,
    ) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._events = 0
        self._closed = False
        self._handle = self.path.open("w", encoding="utf-8")
        self._write(manifest_line(build_manifest(command, config)))

    def _write(self, line: dict[str, Any]) -> None:
        self._handle.write(dump_line(line))
        self._handle.flush()

    def append_event(
        self, kind: str, message: str, attrs: Mapping[str, Any]
    ) -> None:
        line = event_line(kind, message, attrs)
        with self._lock:
            if self._closed:
                return
            self._events += 1
            self._write(line)

    def close(self, counters: Mapping[str, int | float] | None = None) -> None:
        """Finalize the file with the schema-required rollup line."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._write(rollup_line({}, counters or {}, {}, 0, self._events))
            self._handle.close()


class RequestSlice:
    """Everything the requests of one time slice add to the account.

    The :class:`~repro.obs.live.SliceRing` slice type of
    :class:`ServingTelemetry`: four histograms and five counts, filled by
    one :meth:`record` per request and combined by :meth:`merge` (bucket
    merge and integer sums, so any merge order gives the same slice).
    A cancelled request never ran: it adds to the counts but to no
    histogram.
    """

    def __init__(self) -> None:
        self.latency = Histogram()
        self.queue_wait = Histogram()
        self.execute = Histogram()
        self.batch_rows = Histogram()
        self.requests = 0
        self.rows = 0
        self.errors = 0
        self.cancelled = 0
        self.dropped_unknown_items = 0

    def record(
        self,
        rows: int,
        queue_wait_s: float,
        execute_s: float,
        dropped_unknown: int,
        outcome: str,
    ) -> None:
        self.requests += 1
        self.rows += rows
        self.dropped_unknown_items += dropped_unknown
        if outcome == "cancelled":
            self.cancelled += 1
            return
        if outcome == "error":
            self.errors += 1
        self.latency.observe(queue_wait_s + execute_s)
        self.queue_wait.observe(queue_wait_s)
        self.execute.observe(execute_s)
        self.batch_rows.observe(rows)

    def merge(self, other: "RequestSlice") -> None:
        self.latency.merge(other.latency)
        self.queue_wait.merge(other.queue_wait)
        self.execute.merge(other.execute)
        self.batch_rows.merge(other.batch_rows)
        self.requests += other.requests
        self.rows += other.rows
        self.errors += other.errors
        self.cancelled += other.cancelled
        self.dropped_unknown_items += other.dropped_unknown_items


class ServingTelemetry:
    """Aggregates live serving signals; safe for concurrent recording."""

    def __init__(
        self,
        config: TelemetryConfig | None = None,
        event_log: TraceEventLog | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.config = config or TelemetryConfig()
        self._clock = clock if clock is not None else time.monotonic
        self.window = SliceRing(
            RequestSlice, slice_seconds=self.config.slice_seconds, clock=self._clock
        )
        self.slo = SloMonitor(self.config.slos)
        self.event_log = event_log
        self._lock = threading.Lock()
        self._worker_deaths = 0
        self._sampled_traces = 0
        self._samples: list[dict[str, Any]] = []
        self._last_eval_epoch: int | None = None
        self._queue_depth_fn: Callable[[], int] | None = None
        self._queue_capacity: int | None = None
        self._started = self._clock()

    # -- wiring --------------------------------------------------------
    def bind_queue(self, depth_fn: Callable[[], int], capacity: int) -> None:
        """Attach the frontend's queue so the snapshot can report depth
        and saturation (the frontend calls this on construction)."""
        self._queue_depth_fn = depth_fn
        self._queue_capacity = int(capacity)

    # -- recording -----------------------------------------------------
    def record_request(
        self,
        request_id: int,
        rows: int,
        queue_wait_s: float,
        execute_s: float,
        dropped_unknown: int = 0,
        outcome: str = "ok",
        error: str | None = None,
        now: float | None = None,
    ) -> None:
        """One request that reached an outcome (ok, error or cancelled);
        the only writer of request accounting: one record into the slice
        ring.  The histograms skip cancelled requests, which never ran."""
        now = self._clock() if now is None else float(now)
        self.window.record(
            RequestSlice.record, rows, queue_wait_s, execute_s,
            dropped_unknown, outcome, now=now,
        )
        _obs.add("serving.requests_served")
        if dropped_unknown:
            _obs.add("serving.unknown_items_dropped", dropped_unknown)
        latency_s = queue_wait_s + execute_s
        if outcome != "cancelled":
            _obs.observe("serving.request_latency_s", latency_s)
            _obs.observe("serving.queue_wait_s", queue_wait_s)
            _obs.observe("serving.execute_s", execute_s)
            _obs.observe("serving.batch_rows", rows)
        if request_id % self.config.sample_every == 0:
            record: dict[str, Any] = {
                "request_id": int(request_id),
                "rows": int(rows),
                "queue_wait_s": float(queue_wait_s),
                "execute_s": float(execute_s),
                "latency_s": float(latency_s),
                "dropped_unknown_items": int(dropped_unknown),
                "outcome": outcome,
            }
            if error is not None:
                record["error"] = error
            with self._lock:
                self._sampled_traces += 1
                self._samples.append(record)
                del self._samples[:-_MAX_SAMPLES]
            if self.event_log is not None:
                self.event_log.append_event(
                    "serving.request",
                    f"request {request_id} {outcome} "
                    f"({rows} rows, {1e3 * latency_s:.2f} ms)",
                    record,
                )
        self.maybe_evaluate(now)

    def record_worker_death(self) -> None:
        with self._lock:
            self._worker_deaths += 1
        _obs.add("serving.worker_deaths")
        if self.event_log is not None:
            self.event_log.append_event(
                "serving.worker_death", "worker died and was respawned", {}
            )

    def totals(self) -> dict[str, int]:
        """Lifetime counters since construction (the snapshot's
        ``cumulative`` section and the trace rollup's counters)."""
        lifetime = self.window.lifetime()
        with self._lock:
            return {
                "cancelled": lifetime.cancelled,
                "dropped_unknown_items": lifetime.dropped_unknown_items,
                "worker_deaths": self._worker_deaths,
                "sampled_traces": self._sampled_traces,
                "requests": lifetime.requests,
                "rows": int(lifetime.rows),
                "errors": lifetime.errors,
            }

    # -- SLO evaluation ------------------------------------------------
    def _saturation(self) -> tuple[int | None, float | None]:
        """The bound queue's depth and depth / capacity (None unbound)."""
        if self._queue_depth_fn is None or not self._queue_capacity:
            return None, None
        depth = self._queue_depth_fn()
        return depth, depth / self._queue_capacity

    def slo_values(self, now: float | None = None) -> dict[str, float | None]:
        """The live metric values the SLO rules are evaluated against."""
        live, seconds = self.window.live(now)
        requests = float(live.requests)
        return {
            "p99_latency_s": live.latency.summary().get("p99"),
            "error_rate": live.errors / requests if requests > 0 else None,
            "queue_saturation": self._saturation()[1],
            "requests_per_s": requests / seconds,
        }

    def maybe_evaluate(self, now: float | None = None) -> list[dict[str, Any]]:
        """Evaluate the SLO rules once per window-slice rotation.

        Called from every :meth:`record_request` and from
        :meth:`snapshot`; only the call that first observes a new slice
        epoch pays for an evaluation, so per-request cost stays at one
        integer compare.
        """
        if not self.slo.rules:
            return []
        now = self._clock() if now is None else float(now)
        epoch = self.window.epoch(now)
        with self._lock:
            if self._last_eval_epoch is None:
                self._last_eval_epoch = epoch
                return []
            if epoch <= self._last_eval_epoch:
                return []
            self._last_eval_epoch = epoch
        transitions = self.slo.evaluate(self.slo_values(now), time.time())
        if self.event_log is not None:
            for alert in transitions:
                self.event_log.append_event(
                    f"slo.{alert['state']}",
                    f"SLO {alert['rule']}: {alert['metric']}="
                    f"{alert['value']} vs threshold {alert['threshold']}",
                    alert,
                )
        return transitions

    # -- exposition ----------------------------------------------------
    def snapshot(self, now: float | None = None) -> dict[str, Any]:
        """Everything a scraper needs, as one JSON-stable plain dict.

        The windowed section is one merge of the live slices, and its
        three rates divide by the same covered seconds."""
        now = self._clock() if now is None else float(now)
        self.maybe_evaluate(now)
        cumulative = self.totals()
        with self._lock:
            samples = [dict(r) for r in self._samples]
        live, seconds = self.window.live(now)
        requests = float(live.requests)
        rows = float(live.rows)
        errors = float(live.errors)
        depth, saturation = self._saturation()
        return {
            "schema": SNAPSHOT_SCHEMA,
            "time_unix": time.time(),
            "uptime_s": max(now - self._started, 0.0),
            "window": {
                "n_slices": self.window.n_slices,
                "slice_seconds": self.config.slice_seconds,
                "seconds": self.window.window_seconds,
                "sample_every": self.config.sample_every,
            },
            "cumulative": cumulative,
            "windowed": {
                "requests": requests,
                "rows": rows,
                "errors": errors,
                "requests_per_s": requests / seconds,
                "rows_per_s": rows / seconds,
                "errors_per_s": errors / seconds,
                "error_rate": errors / requests if requests > 0 else 0.0,
                "latency_s": live.latency.summary(),
                "queue_wait_s": live.queue_wait.summary(),
                "execute_s": live.execute.summary(),
                "batch_rows": live.batch_rows.summary(),
            },
            "queue": {
                "depth": depth,
                "capacity": None if depth is None else self._queue_capacity,
                "saturation": saturation,
            },
            "slo": self.slo.snapshot(),
            "samples": samples,
        }

    def close(self) -> None:
        """Finalize the event log (writes the trace rollup line)."""
        if self.event_log is not None:
            counters = {
                f"serving.{name}": value
                for name, value in self.totals().items()
            }
            self.event_log.close(counters=counters)


# ---------------------------------------------------------------------
# Prometheus-style text exposition
# ---------------------------------------------------------------------
_PROM_PREFIX = "repro_serving"

#: (snapshot section, key, metric suffix, TYPE) for the scalar metrics.
_PROM_SCALARS = (
    ("cumulative", "requests", "requests_total", "counter"),
    ("cumulative", "rows", "rows_total", "counter"),
    ("cumulative", "errors", "errors_total", "counter"),
    ("cumulative", "cancelled", "cancelled_total", "counter"),
    (
        "cumulative",
        "dropped_unknown_items",
        "dropped_unknown_items_total",
        "counter",
    ),
    ("cumulative", "worker_deaths", "worker_deaths_total", "counter"),
    ("windowed", "requests_per_s", "window_requests_per_second", "gauge"),
    ("windowed", "rows_per_s", "window_rows_per_second", "gauge"),
    ("windowed", "errors_per_s", "window_errors_per_second", "gauge"),
    ("windowed", "error_rate", "window_error_rate", "gauge"),
    ("queue", "depth", "queue_depth", "gauge"),
    ("queue", "capacity", "queue_capacity", "gauge"),
    ("queue", "saturation", "queue_saturation", "gauge"),
)

#: (windowed histogram key, metric base name) for quantile summaries.
_PROM_SUMMARIES = (
    ("latency_s", "request_latency_seconds"),
    ("queue_wait_s", "queue_wait_seconds"),
    ("execute_s", "execute_seconds"),
    ("batch_rows", "batch_rows"),
)


def _fmt_value(value: Any) -> str:
    if isinstance(value, bool):  # bool is an int; reject explicitly
        raise TypeError("boolean metric value")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`ServingTelemetry.snapshot` as Prometheus text.

    Window-scoped quantiles use the summary convention
    (``{quantile="0.5"}`` labels plus ``_count``/``_sum``); ``None``
    values (no data yet) simply omit their line.
    """
    lines: list[str] = []

    def emit(name: str, value: Any, kind: str, labels: str = "") -> None:
        if value is None:
            return
        full = f"{_PROM_PREFIX}_{name}"
        type_line = f"# TYPE {full} {kind}"
        if type_line not in lines:
            lines.append(type_line)
        lines.append(f"{full}{labels} {_fmt_value(value)}")

    for section, key, suffix, kind in _PROM_SCALARS:
        emit(suffix, snapshot.get(section, {}).get(key), kind)

    windowed = snapshot.get("windowed", {})
    for key, base in _PROM_SUMMARIES:
        summary = windowed.get(key) or {}
        for label, quantile in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            emit(
                base,
                summary.get(quantile),
                "summary",
                labels=f'{{quantile="{label}"}}',
            )
        emit(f"{base}_count", summary.get("count", 0), "counter")
        emit(f"{base}_sum", summary.get("sum", 0.0), "counter")

    slo = snapshot.get("slo", {})
    if slo.get("rules"):
        emit("slo_breaches_total", slo.get("breaches", 0), "counter")
        emit("slo_transitions_total", slo.get("transitions", 0), "counter")
        firing = set(slo.get("firing", ()))
        for rule in slo.get("rules", ()):
            emit(
                "slo_firing",
                1 if rule["name"] in firing else 0,
                "gauge",
                labels=f'{{rule="{rule["name"]}"}}',
            )
    return "\n".join(lines) + "\n"
