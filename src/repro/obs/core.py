"""The instrumentation core: spans, counters, series and events.

One :class:`ObsSession` holds everything recorded during an observed run:

* **spans** — a hierarchical trace of named phases.  ``span(name)`` is a
  context manager measuring wall time, CPU time and (on POSIX) the
  process's peak RSS at exit; nesting builds a tree via per-thread parent
  stacks, so concurrent fold threads each grow their own branch.
* **counters** — monotonically accumulated integers/floats keyed by a
  dotted name (``mining.closed.closure_checks``).  Increments are merged
  additively across threads and worker processes.
* **series** — append-only numeric sequences for values that evolve over
  a run (MMRFS coverage progress per selection round).
* **histograms** — fixed log-bucket distributions
  (:class:`~repro.obs.metrics.Histogram`) for latency- and size-shaped
  quantities (per-partition mine time, per-fold CV time, scoring batch
  latency, cache hit latency, bitset kernel batch sizes); mergeable
  across threads and worker processes, rolled up to p50/p90/p99/max.
* **events** — timestamped structured messages (the warning channel).

The subsystem is **off by default**: the module-global ``_ACTIVE`` session
is ``None`` and every helper (:func:`add`, :func:`record`, :func:`span`,
:func:`event`) returns after a single global read and ``None`` check, so
instrumented hot paths pay only that guard.  :func:`session` installs a
live session for the duration of a ``with`` block.

Process-pool fan-outs survive via :func:`worker_session` +
:meth:`ObsSession.absorb`: a worker records into a fresh session, ships
:meth:`ObsSession.export` back with its result, and the parent re-parents
the worker's root spans under the span that launched the fan-out — one
trace tree per run, regardless of how many processes produced it
(:mod:`repro.core.parallel` does this wiring automatically).

Only the standard library is used; nothing in this package may import
from the rest of ``repro``.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from .metrics import Histogram
from .schema import event_line

try:  # POSIX-only; absent on Windows
    import resource
except ImportError:  # pragma: no cover - platform-dependent
    resource = None  # type: ignore[assignment]

try:
    import tracemalloc
except ImportError:  # pragma: no cover - always present on CPython
    tracemalloc = None  # type: ignore[assignment]

__all__ = [
    "ObsSession",
    "active",
    "session",
    "worker_session",
    "span",
    "add",
    "record",
    "observe",
    "event",
    "warn",
]

#: The installed session, or None when instrumentation is disabled.  Hot
#: paths read this exactly once per helper call; keeping it a plain module
#: global makes the disabled path a dict lookup plus a None test.
_ACTIVE: "ObsSession | None" = None


def _peak_rss_kb() -> int | None:
    """Peak resident set size of this process in KiB, if measurable."""
    if resource is None:  # pragma: no cover - platform-dependent
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalize to KiB.
    import sys

    if sys.platform == "darwin":  # pragma: no cover - platform-dependent
        peak //= 1024
    return int(peak)


class _NullSpan:
    """The disabled-path span: a shared, allocation-free no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: measures wall/CPU time between __enter__ and __exit__."""

    __slots__ = (
        "_session",
        "name",
        "span_id",
        "parent_id",
        "attributes",
        "start_unix",
        "_wall0",
        "_cpu0",
    )

    def __init__(self, session: "ObsSession", name: str, attributes: dict) -> None:
        self._session = session
        self.name = name
        self.attributes = attributes
        self.span_id = session._next_id()
        self.parent_id: str | None = None
        self.start_unix = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def set(self, **attributes: Any) -> "_Span":
        """Attach attributes to the span (chainable)."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "_Span":
        self.parent_id = self._session._push(self)
        self.start_unix = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        self._session._pop(self)
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        record = {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start_unix": self.start_unix,
            "wall_s": wall,
            "cpu_s": cpu,
            "rss_kb": _peak_rss_kb(),
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
            "attrs": self.attributes,
        }
        if tracemalloc is not None and tracemalloc.is_tracing():
            record["py_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        self._session._finish(record)
        return False


class ObsSession:
    """Collects spans, counters, series and events for one observed run.

    Thread-safe: the current-parent span stack is per-thread, and all
    shared structures are guarded by one lock.  ``manifest`` is a free-form
    dict the run's entry point (and data loaders) may annotate; it is
    emitted as the trace's first line.
    """

    def __init__(self) -> None:
        self.manifest: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._spans: list[dict] = []
        self._counters: dict[str, int | float] = {}
        self._series: dict[str, list] = {}
        self._histograms: dict[str, Histogram] = {}
        self._events: list[dict] = []
        self._tls = threading.local()
        self._id_counter = 0
        self._n_ops = 0  # instrumentation operations, for overhead accounting

    # -- span stack ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _next_id(self) -> str:
        with self._lock:
            self._id_counter += 1
            return f"{os.getpid():x}-{self._id_counter:x}"

    def _push(self, span: _Span) -> str | None:
        stack = self._stack()
        parent = stack[-1].span_id if stack else getattr(self._tls, "base", None)
        stack.append(span)
        return parent

    def _pop(self, span: _Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - defensive (exotic exits)
            stack.remove(span)

    def _finish(self, record: dict) -> None:
        with self._lock:
            self._spans.append(record)
            self._n_ops += 1

    def current_span_id(self) -> str | None:
        """Id of this thread's innermost open span (fan-out parent)."""
        stack = getattr(self._tls, "stack", None)
        if stack:
            return stack[-1].span_id
        return getattr(self._tls, "base", None)

    @contextmanager
    def thread_context(self, parent_id: str | None) -> Iterator[None]:
        """Adopt ``parent_id`` as this thread's root parent.

        Used by thread-pool fan-outs so spans opened on a worker thread
        attach to the span that launched the fan-out instead of floating
        as parentless roots.
        """
        previous = getattr(self._tls, "base", None)
        self._tls.base = parent_id
        try:
            yield
        finally:
            self._tls.base = previous

    # -- recording API -------------------------------------------------
    def annotate_manifest(self, key: str, value: Any) -> None:
        """Append ``value`` to the manifest list under ``key`` (thread-safe).

        Data loaders use this to register each dataset (name, shape,
        content hash) a run touches.
        """
        with self._lock:
            self.manifest.setdefault(key, []).append(value)

    def span(self, name: str, **attributes: Any) -> _Span:
        return _Span(self, name, attributes)

    def add(self, name: str, value: int | float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value
            self._n_ops += 1

    def add_many(self, pairs: Iterable[tuple[str, int | float]]) -> None:
        """Accumulate several counters under one lock acquisition.

        The cheap form for hooks that bump multiple counters on the same
        hot path (e.g. kernel call count + volume): one lock round-trip
        instead of one per counter keeps the enabled-session overhead
        inside the benchmark budget.
        """
        with self._lock:
            counters = self._counters
            for name, value in pairs:
                counters[name] = counters.get(name, 0) + value
                self._n_ops += 1

    def record(self, name: str, value: int | float) -> None:
        with self._lock:
            self._series.setdefault(name, []).append(value)
            self._n_ops += 1

    def observe(self, name: str, value: int | float) -> None:
        """Record one observation into the named histogram."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)
            self._n_ops += 1

    def event(self, kind: str, message: str, **attributes: Any) -> None:
        with self._lock:
            self._events.append(event_line(kind, message, attributes))
            self._n_ops += 1

    # -- accessors (tests, report) -------------------------------------
    @property
    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    @property
    def counters(self) -> dict[str, int | float]:
        with self._lock:
            return dict(self._counters)

    @property
    def series(self) -> dict[str, list]:
        with self._lock:
            return {name: list(vals) for name, vals in self._series.items()}

    @property
    def histograms(self) -> dict[str, Histogram]:
        with self._lock:
            return {name: hist.copy() for name, hist in self._histograms.items()}

    @property
    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    @property
    def n_ops(self) -> int:
        """Total instrumentation operations recorded (overhead accounting)."""
        with self._lock:
            return self._n_ops

    # -- cross-process merge -------------------------------------------
    def export(self) -> dict:
        """Everything recorded, as one picklable payload."""
        with self._lock:
            return {
                "spans": list(self._spans),
                "counters": dict(self._counters),
                "series": {k: list(v) for k, v in self._series.items()},
                "histograms": {
                    k: h.to_payload() for k, h in self._histograms.items()
                },
                "events": list(self._events),
                "n_ops": self._n_ops,
            }

    def absorb(self, payload: dict, parent_id: str | None = None) -> None:
        """Merge a worker session's :meth:`export` into this session.

        Worker spans keep their internal parent/child structure; spans that
        were roots *in the worker* are re-parented under ``parent_id`` so
        the merged result is one tree.  Counters merge additively, series
        by extension (callers absorb in submission order, so merged series
        are deterministic for a fixed fan-out).
        """
        spans = payload.get("spans", [])
        local_ids = {sp["id"] for sp in spans}
        with self._lock:
            for sp in spans:
                if sp.get("parent") not in local_ids:
                    sp = {**sp, "parent": parent_id}
                self._spans.append(sp)
            for name, value in payload.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, values in payload.get("series", {}).items():
                self._series.setdefault(name, []).extend(values)
            for name, hist_payload in payload.get("histograms", {}).items():
                incoming = Histogram.from_payload(hist_payload)
                hist = self._histograms.get(name)
                if hist is None:
                    self._histograms[name] = incoming
                else:
                    hist.merge(incoming)
            self._events.extend(payload.get("events", []))
            self._n_ops += payload.get("n_ops", 0)


# ---------------------------------------------------------------------
# Module-level API: the only thing hot paths touch.
# ---------------------------------------------------------------------
def active() -> ObsSession | None:
    """The installed session, or None when instrumentation is disabled."""
    return _ACTIVE


@contextmanager
def session(trace_memory: bool = False) -> Iterator[ObsSession]:
    """Install a fresh :class:`ObsSession` for the duration of the block.

    ``trace_memory=True`` additionally runs ``tracemalloc`` for the block,
    giving every span a ``py_peak_bytes`` reading (noticeably slower;
    off by default).  Sessions do not nest: installing a second session
    while one is active raises, which catches accidental double
    instrumentation in tests and the CLI.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("an ObsSession is already active")
    started_tracing = False
    if trace_memory and tracemalloc is not None and not tracemalloc.is_tracing():
        tracemalloc.start()
        started_tracing = True
    _ACTIVE = created = ObsSession()
    try:
        yield created
    finally:
        _ACTIVE = None
        if started_tracing:
            tracemalloc.stop()


@contextmanager
def worker_session() -> Iterator[ObsSession]:
    """A fresh session for a pool worker, shadowing any inherited one.

    Fork-started workers inherit the parent's ``_ACTIVE`` object;
    recording into it would duplicate the parent's history in the export.
    This installs a clean session and restores the previous value on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = created = ObsSession()
    try:
        yield created
    finally:
        _ACTIVE = previous


def span(name: str, **attributes: Any):
    """Open a span on the active session, or a shared no-op when disabled."""
    current = _ACTIVE
    if current is None:
        return _NULL_SPAN
    return current.span(name, **attributes)


def add(name: str, value: int | float = 1) -> None:
    """Increment a counter on the active session (no-op when disabled)."""
    current = _ACTIVE
    if current is not None:
        current.add(name, value)


def record(name: str, value: int | float) -> None:
    """Append to a series on the active session (no-op when disabled)."""
    current = _ACTIVE
    if current is not None:
        current.record(name, value)


def observe(name: str, value: int | float) -> None:
    """Record a histogram observation (no-op when disabled)."""
    current = _ACTIVE
    if current is not None:
        current.observe(name, value)


def event(kind: str, message: str, **attributes: Any) -> None:
    """Record a structured event on the active session (no-op when disabled)."""
    current = _ACTIVE
    if current is not None:
        current.event(kind, message, **attributes)


def warn(message: str, **attributes: Any) -> None:
    """The event channel's warning helper.

    Always raises a Python :class:`RuntimeWarning` (so the condition is
    visible without instrumentation) and additionally records a
    ``warning`` event when a session is active.
    """
    warnings.warn(message, RuntimeWarning, stacklevel=3)
    event("warning", message, **attributes)
