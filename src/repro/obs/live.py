"""The time-sliced window and SLO monitoring for long-running processes.

The base instruments in :mod:`repro.obs.metrics` are *cumulative*: a
:class:`~repro.obs.metrics.Histogram` answers "what was p99 since process
start", which is the right shape for batch runs and traces but useless
for a serving process that has been up for a week — a latency regression
five minutes ago drowns in millions of old observations.  This module
adds the *live* counterparts:

* :class:`SliceRing` — the one windowed structure: a time-sliced ring of
  N rotating slices (default 6 × 10 s) of a caller-supplied slice type.
  A slice holds everything one event adds — for serving, four
  histograms and the request counts
  (:class:`~repro.serving.telemetry.RequestSlice`) — so one record
  takes one lock and computes one epoch (``floor(now /
  slice_seconds)``) for every field.  :meth:`SliceRing.live` merges the
  live slices with the same order-invariant merge the process-pool
  absorption path uses, so rolling p50/p90/p99 carry the identical
  ~4.4% error bound, and returns the seconds of real time the window
  covers — the one divisor of every rate read from it.  Slices older
  than the window are evicted, so the rollup really is "the last
  minute", not "since boot".
* :meth:`SliceRing.lifetime`: evicted slices (and records already too
  old on arrival) fold into a retired slice, so one record per event
  answers both "the last minute" and "since boot".
* :class:`SloRule` / :class:`SloMonitor` — declarative thresholds over
  a mapping of live metric values (p99 latency, error rate, queue
  saturation), evaluated per window rotation, with firing/resolved
  *transitions* (not repeated spam), per-rule breach counters, and
  every transition emitted through the :mod:`repro.obs.core` event
  channel so traced runs record their alerts.

Every read and record takes an optional explicit ``now`` and the ring
an injectable ``clock`` (default ``time.monotonic``), so the rotation
and eviction semantics are deterministic under test — the property
suite in ``tests/test_obs_live.py`` proves the merged live slices equal
one histogram (or sum) of the same in-window records, and the lifetime
slice equals one of *all* records, in any arrival order.

Like everything in ``repro.obs``, this module uses only the standard
library and must not import from the rest of ``repro``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from . import core as _core

__all__ = [
    "DEFAULT_SLICES",
    "DEFAULT_SLICE_SECONDS",
    "SliceRing",
    "SloMonitor",
    "SloRule",
]

#: Default number of rotating slices per window.
DEFAULT_SLICES = 6

#: Default wall-clock width of one slice, in seconds.
DEFAULT_SLICE_SECONDS = 10.0

#: Alert transitions retained by an :class:`SloMonitor` (bounded memory).
MAX_ALERT_HISTORY = 64


class SliceRing:
    """A rolling window of mergeable slices keyed by time epoch.

    ``factory`` makes an empty slice; a slice needs only
    ``merge(other)`` (fold another slice in, order-invariantly).  The
    ring never looks inside a slice: :meth:`record` hands the slice
    owning a timestamp to the caller's update function, under the ring's
    one lock.

    Slices are keyed by epoch ``floor(now / slice_seconds)``.  The live
    window is the ``n_slices`` most recent epochs *relative to the
    latest epoch ever seen*; anything older is evicted into the retired
    slice on the next record or read.  Keying by the maximum epoch
    (rather than a mutable cursor) makes retention a pure function of
    the record timestamps — the property the order-invariance tests pin
    down.
    """

    __slots__ = (
        "n_slices",
        "slice_seconds",
        "_factory",
        "_clock",
        "_slices",
        "_retired",
        "_latest_epoch",
        "_first_now",
        "_lock",
    )

    def __init__(
        self,
        factory: Callable[[], Any],
        n_slices: int = DEFAULT_SLICES,
        slice_seconds: float = DEFAULT_SLICE_SECONDS,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if n_slices < 1:
            raise ValueError("n_slices must be >= 1")
        if slice_seconds <= 0:
            raise ValueError("slice_seconds must be > 0")
        self.n_slices = int(n_slices)
        self.slice_seconds = float(slice_seconds)
        self._factory = factory
        self._clock = clock if clock is not None else time.monotonic
        self._slices: dict[int, Any] = {}
        self._retired = factory()
        self._latest_epoch: int | None = None
        self._first_now: float | None = None
        self._lock = threading.Lock()

    @property
    def window_seconds(self) -> float:
        return self.n_slices * self.slice_seconds

    def _advance(self, epoch: int) -> None:
        """Update the latest epoch and retire slices that fell out of the
        window.  Caller holds the lock.

        Slices are only ever created inside the window, so while the
        latest epoch stands no slice can have fallen out of it and the
        eviction scan is skipped."""
        if self._latest_epoch is not None and epoch <= self._latest_epoch:
            return
        self._latest_epoch = epoch
        floor = epoch - self.n_slices
        for key in [key for key in self._slices if key <= floor]:
            self._retired.merge(self._slices.pop(key))

    def record(
        self, update: Callable[..., None], *args: Any, now: float | None = None
    ) -> None:
        """Apply ``update(slice, *args)`` to the slice owning ``now``'s
        epoch, or to the retired slice when ``now`` is already older than
        the window (an out-of-order arrival)."""
        now = self._clock() if now is None else float(now)
        epoch = math.floor(now / self.slice_seconds)
        with self._lock:
            if self._first_now is None or now < self._first_now:
                self._first_now = now
            self._advance(epoch)
            if epoch <= self._latest_epoch - self.n_slices:
                slot = self._retired
            else:
                slot = self._slices.get(epoch)
                if slot is None:
                    slot = self._slices[epoch] = self._factory()
            update(slot, *args)

    def live(self, now: float | None = None) -> tuple[Any, float]:
        """One slice merging everything inside the window, and the
        seconds of real time the window covers.

        The seconds are the divisor of every windowed rate.  A freshly
        started ring has not lived a full window yet, so they run from
        the first record (clamped to 1 ms) instead of the window floor —
        otherwise early rates read ~0.
        """
        now = self._clock() if now is None else float(now)
        epoch = math.floor(now / self.slice_seconds)
        out = self._factory()
        with self._lock:
            self._advance(epoch)
            for slot in self._slices.values():
                out.merge(slot)
            start = (epoch - self.n_slices + 1) * self.slice_seconds
            if self._first_now is not None:
                start = max(start, self._first_now)
        return out, max(now - start, 1e-3)

    def lifetime(self) -> Any:
        """One slice merging every record ever made."""
        out = self._factory()
        with self._lock:
            out.merge(self._retired)
            for slot in self._slices.values():
                out.merge(slot)
        return out


@dataclass(frozen=True)
class SloRule:
    """One declarative service-level threshold.

    ``metric`` names a key in the values mapping handed to
    :meth:`SloMonitor.evaluate` (the serving layer publishes
    ``p99_latency_s``, ``error_rate`` and ``queue_saturation``);
    ``op`` is ``"gt"`` (breach when value > threshold) or ``"lt"``.
    A missing or NaN metric value never breaches — no data is not an
    outage.
    """

    name: str
    metric: str
    threshold: float
    op: str = "gt"

    def __post_init__(self) -> None:
        if self.op not in ("gt", "lt"):
            raise ValueError(f"op must be 'gt' or 'lt', got {self.op!r}")

    def breached(self, value: float) -> bool:
        if self.op == "gt":
            return value > self.threshold
        return value < self.threshold

    def to_payload(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "threshold": self.threshold,
            "op": self.op,
        }


class SloMonitor:
    """Evaluates :class:`SloRule` thresholds and tracks alert state.

    Per rule: a ``firing`` flag, a breach counter (evaluations that
    breached), and a transition counter.  Each firing→resolved or
    resolved→firing flip appends a bounded alert record and emits a
    ``slo.firing`` / ``slo.resolved`` event through the
    :mod:`repro.obs.core` channel (a no-op when no session is active,
    exactly like every other obs hook).
    """

    def __init__(self, rules: tuple[SloRule, ...] | list[SloRule] = ()) -> None:
        names = [rule.name for rule in rules]
        if len(names) != len(set(names)):
            raise ValueError("SLO rule names must be unique")
        self.rules: tuple[SloRule, ...] = tuple(rules)
        self._lock = threading.Lock()
        self._state: dict[str, dict[str, Any]] = {
            rule.name: {"firing": False, "breaches": 0, "transitions": 0}
            for rule in self.rules
        }
        self._alerts: list[dict[str, Any]] = []
        self._evaluations = 0

    def evaluate(
        self, values: Mapping[str, float | None], now: float | None = None
    ) -> list[dict[str, Any]]:
        """Compare every rule against ``values``; returns new transitions."""
        if now is None:
            now = time.time()
        transitions: list[dict[str, Any]] = []
        with self._lock:
            self._evaluations += 1
            for rule in self.rules:
                value = values.get(rule.metric)
                usable = (
                    value is not None
                    and isinstance(value, (int, float))
                    and not math.isnan(value)
                )
                breaching = bool(usable and rule.breached(float(value)))
                state = self._state[rule.name]
                if breaching:
                    state["breaches"] += 1
                if breaching != state["firing"]:
                    state["firing"] = breaching
                    state["transitions"] += 1
                    alert = {
                        "rule": rule.name,
                        "metric": rule.metric,
                        "state": "firing" if breaching else "resolved",
                        "value": float(value) if usable else None,
                        "threshold": rule.threshold,
                        "time": float(now),
                    }
                    self._alerts.append(alert)
                    del self._alerts[:-MAX_ALERT_HISTORY]
                    transitions.append(alert)
        for alert in transitions:  # emit outside the lock
            _core.event(
                f"slo.{alert['state']}",
                f"SLO {alert['rule']}: {alert['metric']}="
                f"{alert['value']} vs threshold {alert['threshold']}",
                **{k: v for k, v in alert.items() if k != "state"},
            )
        return transitions

    def snapshot(self) -> dict[str, Any]:
        """JSON-stable view: rules, firing set, breach/transition totals."""
        with self._lock:
            return {
                "rules": [rule.to_payload() for rule in self.rules],
                "firing": sorted(
                    name
                    for name, state in self._state.items()
                    if state["firing"]
                ),
                "breaches": sum(s["breaches"] for s in self._state.values()),
                "transitions": sum(
                    s["transitions"] for s in self._state.values()
                ),
                "evaluations": self._evaluations,
                "per_rule": {
                    name: dict(state) for name, state in self._state.items()
                },
                "alerts": [dict(a) for a in self._alerts],
            }

    @property
    def firing(self) -> bool:
        with self._lock:
            return any(state["firing"] for state in self._state.values())
