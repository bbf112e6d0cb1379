"""Tests for the slice ring and SLO monitor (repro.obs.live).

The acceptance property: merging the live slices of a ``SliceRing`` of
serving :class:`~repro.serving.telemetry.RequestSlice` s must equal —
bucket for bucket, count for count — one plain ``Histogram`` (or sum)
per field of the records still inside the window, regardless of the
order the records arrived in, and the lifetime slice must equal one of
*every* record.  Retention is a pure function of the record timestamps
(latest epoch ever seen defines the window), which is what makes the
property order-invariant at all.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import session as obs_session
from repro.obs.live import MAX_ALERT_HISTORY, SliceRing, SloMonitor, SloRule
from repro.obs.metrics import Histogram
from repro.serving.telemetry import RequestSlice


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def request_ring(n_slices=6, slice_seconds=10.0, clock=None):
    return SliceRing(
        RequestSlice,
        n_slices=n_slices,
        slice_seconds=slice_seconds,
        clock=clock or FakeClock(),
    )


def record(ring, now=None, rows=1, queue_wait=0.0, execute=1.0,
           dropped=0, outcome="ok"):
    ring.record(
        RequestSlice.record, rows, queue_wait, execute, dropped, outcome,
        now=now,
    )


HISTOGRAM_FIELDS = ("latency", "queue_wait", "execute", "batch_rows")
COUNT_FIELDS = ("requests", "rows", "errors", "cancelled", "dropped_unknown_items")


def plain_fields(records):
    """One plain Histogram per histogram field and one sum per count of
    ``records`` — the reference a merged slice must equal."""
    hists = {name: Histogram() for name in HISTOGRAM_FIELDS}
    counts = dict.fromkeys(COUNT_FIELDS, 0)
    for _, queue_wait, execute, rows, dropped, outcome in records:
        counts["requests"] += 1
        counts["rows"] += rows
        counts["dropped_unknown_items"] += dropped
        counts["errors"] += outcome == "error"
        counts["cancelled"] += outcome == "cancelled"
        if outcome == "cancelled":
            continue
        hists["latency"].observe(queue_wait + execute)
        hists["queue_wait"].observe(queue_wait)
        hists["execute"].observe(execute)
        hists["batch_rows"].observe(rows)
    return hists, counts


def assert_slice_equals(merged, hists, counts):
    for name in HISTOGRAM_FIELDS:
        got, want = getattr(merged, name), hists[name]
        assert got.counts == want.counts, name
        assert got.zeros == want.zeros, name
        assert got.count == want.count, name
        assert got.min == want.min, name
        assert got.max == want.max, name
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            a, b = got.quantile(q), want.quantile(q)
            assert a == b or (math.isnan(a) and math.isnan(b)), (name, q)
    assert {name: getattr(merged, name) for name in COUNT_FIELDS} == counts


# (timestamp, queue wait, execute, rows, dropped items, outcome) spread
# over many slice epochs, so shuffled orders exercise out-of-order
# arrival, eviction and too-old arrivals.
records_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
        st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
        st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
        st.integers(0, 50),
        st.integers(0, 3),
        st.sampled_from(("ok", "error", "cancelled")),
    ),
    min_size=1,
    max_size=120,
)


class TestWindowedHistogramProperty:
    """The ring's windowed histogram fields (and its counts)."""

    @given(
        records=records_strategy,
        order_seed=st.randoms(use_true_random=False),
        n_slices=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_merged_slices_equal_one_histogram_any_order(
        self, records, order_seed, n_slices
    ):
        slice_seconds = 5.0
        ring = request_ring(n_slices, slice_seconds)
        shuffled = list(records)
        order_seed.shuffle(shuffled)
        for when, queue_wait, execute, rows, dropped, outcome in shuffled:
            record(ring, when, rows, queue_wait, execute, dropped, outcome)

        # Reference: exactly the records whose epoch is still inside the
        # window relative to the *max* epoch ever seen.  Too-old arrivals
        # went to the retired slice on entry.
        latest = max(math.floor(r[0] / slice_seconds) for r in records)
        in_window = [
            r for r in records
            if math.floor(r[0] / slice_seconds) > latest - n_slices
        ]
        merged, _ = ring.live(now=latest * slice_seconds)
        assert_slice_equals(merged, *plain_fields(in_window))

        # The lifetime slice loses nothing: slices evicted by rotation
        # and records too old on arrival are folded into the retired
        # slice, so it equals one histogram (or sum) of *every* record.
        lifetime = ring.lifetime()
        assert_slice_equals(lifetime, *plain_fields(records))
        assert lifetime.requests == len(records)

    def test_rotation_evicts_old_slices(self):
        ring = request_ring(n_slices=3, slice_seconds=10.0)
        record(ring, now=5.0, execute=1.0)  # epoch 0
        record(ring, now=15.0, execute=2.0)  # epoch 1
        assert ring.live(now=15.0)[0].latency.summary()["count"] == 2

        # Epoch 3: epoch 0 falls out (window = epochs 1..3).
        record(ring, now=35.0, execute=3.0)
        summary = ring.live(now=35.0)[0].latency.summary()
        assert summary["count"] == 2
        assert summary["min"] == 2.0

        # Jump far ahead: everything ages out, then new data lands.
        assert ring.live(now=500.0)[0].latency.summary()["count"] == 0
        record(ring, now=500.0, execute=9.0)
        assert ring.live(now=500.0)[0].latency.summary()["count"] == 1
        assert ring.lifetime().latency.count == 4

    def test_too_old_out_of_order_observation_is_dropped(self):
        ring = request_ring(n_slices=2, slice_seconds=10.0)
        record(ring, now=50.0, rows=3)  # epoch 5; window = epochs 4..5
        # Epoch 1 is older than the window: every field of the record
        # goes to the retired slice at once.
        record(ring, now=10.0, rows=4, dropped=2, outcome="error")
        live, _ = ring.live(now=50.0)
        assert live.latency.count == live.batch_rows.count == 1
        assert (live.requests, live.rows, live.errors) == (1, 3, 0)
        assert live.dropped_unknown_items == 0
        lifetime = ring.lifetime()
        assert lifetime.latency.count == lifetime.batch_rows.count == 2
        assert (lifetime.requests, lifetime.rows, lifetime.errors) == (2, 7, 1)
        assert lifetime.dropped_unknown_items == 2

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            SliceRing(RequestSlice, n_slices=0)
        with pytest.raises(ValueError):
            SliceRing(RequestSlice, slice_seconds=0.0)


class TestWindowedCounter:
    """The ring's windowed counts and the one rate divisor."""

    def test_total_tracks_only_the_window(self):
        ring = request_ring(n_slices=2, slice_seconds=10.0)
        record(ring, now=5.0, rows=5)  # epoch 0
        record(ring, now=15.0, rows=7)  # epoch 1
        assert ring.live(now=15.0)[0].rows == 12
        record(ring, now=25.0, rows=1)  # epoch 2: epoch 0 evicted
        assert ring.live(now=25.0)[0].rows == 8
        record(ring, now=3.0, rows=4)  # epoch 0 again: too old on arrival
        live, _ = ring.live(now=25.0)
        assert (live.requests, live.rows) == (2, 8)
        # The lifetime counts keep the evicted and the too-old records.
        lifetime = ring.lifetime()
        assert (lifetime.requests, lifetime.rows) == (4, 17)

    def test_rate_uses_elapsed_time_before_window_fills(self):
        # 2 s into life with 10 rows the rate must read ~5/s, not
        # 10 / full-window-width.
        ring = request_ring(n_slices=6, slice_seconds=10.0)
        record(ring, now=100.0, rows=10)
        live, seconds = ring.live(now=102.0)
        assert seconds == pytest.approx(2.0)
        assert live.rows / seconds == pytest.approx(5.0)

    def test_rate_uses_window_width_once_filled(self):
        ring = request_ring(n_slices=2, slice_seconds=10.0)
        record(ring, now=5.0, rows=40)
        record(ring, now=15.0, rows=40)
        # Divisor is elapsed-since-first-record (t=5) while that is later
        # than the window floor: 80 rows over 14 s.
        live, seconds = ring.live(now=19.0)
        assert live.rows / seconds == pytest.approx(80.0 / 14.0)
        # Far later the window floor dominates: at t=95 the window
        # covers epochs 8..9 (floor t=80), and everything was evicted.
        live, seconds = ring.live(now=95.0)
        assert seconds == pytest.approx(15.0)
        assert live.rows / seconds == 0.0

    def test_clock_default_is_used_when_now_omitted(self):
        clock = FakeClock(now=42.0)
        ring = request_ring(clock=clock)
        record(ring, rows=3)
        live, seconds = ring.live()
        assert live.rows == 3
        assert seconds == pytest.approx(1e-3)  # clamped: no time has passed
        clock.now = 44.0
        assert ring.live()[1] == pytest.approx(2.0)


class TestSloMonitor:
    def rules(self):
        return (
            SloRule("p99", "p99_latency_s", 0.5),
            SloRule("errors", "error_rate", 0.1),
            SloRule("throughput", "requests_per_s", 10.0, op="lt"),
        )

    def test_firing_and_resolved_transitions(self):
        monitor = SloMonitor(self.rules())
        healthy = {
            "p99_latency_s": 0.1,
            "error_rate": 0.0,
            "requests_per_s": 100.0,
        }
        assert monitor.evaluate(healthy, now=1.0) == []
        assert not monitor.firing

        breach = dict(healthy, p99_latency_s=2.0)
        transitions = monitor.evaluate(breach, now=2.0)
        assert [t["rule"] for t in transitions] == ["p99"]
        assert transitions[0]["state"] == "firing"
        assert transitions[0]["value"] == 2.0
        assert monitor.firing

        # Still breaching: breach counter moves, but no new transition.
        assert monitor.evaluate(breach, now=3.0) == []
        snap = monitor.snapshot()
        assert snap["firing"] == ["p99"]
        assert snap["per_rule"]["p99"] == {
            "firing": True,
            "breaches": 2,
            "transitions": 1,
        }

        resolved = monitor.evaluate(healthy, now=4.0)
        assert [t["state"] for t in resolved] == ["resolved"]
        assert not monitor.firing
        assert monitor.snapshot()["per_rule"]["p99"]["transitions"] == 2

    def test_lt_rule_and_missing_values_never_breach(self):
        monitor = SloMonitor(self.rules())
        # requests_per_s below 10 breaches the "lt" rule.
        transitions = monitor.evaluate(
            {"p99_latency_s": 0.1, "error_rate": 0.0, "requests_per_s": 2.0},
            now=1.0,
        )
        assert [t["rule"] for t in transitions] == ["throughput"]
        # Missing and NaN values are "no data", not an outage — and an
        # alert that loses its data resolves.
        transitions = monitor.evaluate({"error_rate": float("nan")}, now=2.0)
        assert [t["state"] for t in transitions] == ["resolved"]
        assert not monitor.firing

    def test_alert_history_is_bounded(self):
        monitor = SloMonitor((SloRule("flappy", "x", 1.0),))
        for i in range(2 * MAX_ALERT_HISTORY):
            monitor.evaluate({"x": 2.0 if i % 2 == 0 else 0.0}, now=float(i))
        snap = monitor.snapshot()
        assert len(snap["alerts"]) == MAX_ALERT_HISTORY
        assert snap["transitions"] == 2 * MAX_ALERT_HISTORY

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SloMonitor((SloRule("a", "x", 1.0), SloRule("a", "y", 2.0)))
        with pytest.raises(ValueError, match="op"):
            SloRule("a", "x", 1.0, op="ge")

    def test_transitions_emit_obs_events(self):
        monitor = SloMonitor((SloRule("p99", "p99_latency_s", 0.5),))
        with obs_session() as sess:
            monitor.evaluate({"p99_latency_s": 2.0}, now=1.0)
            monitor.evaluate({"p99_latency_s": 0.1}, now=2.0)
        kinds = [event["kind"] for event in sess.events]
        assert kinds == ["slo.firing", "slo.resolved"]
        assert sess.events[0]["attrs"]["rule"] == "p99"
