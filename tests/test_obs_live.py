"""Tests for the windowed instruments and SLO monitor (repro.obs.live).

The acceptance property: merging the live slices of a
``WindowedHistogram`` must equal — bucket for bucket — one ``Histogram``
fed the same observations that are still inside the window, regardless
of the order the observations arrived in.  Retention is a pure function
of the observation timestamps (latest epoch ever seen defines the
window), which is what makes the property order-invariant at all.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import session as obs_session
from repro.obs.live import (
    MAX_ALERT_HISTORY,
    SloMonitor,
    SloRule,
    WindowedCounter,
    WindowedHistogram,
)
from repro.obs.metrics import Histogram


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# (timestamp, value) pairs spread over many slice epochs, so shuffled
# orders exercise out-of-order arrival, eviction and late drops.
observations_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
        st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
    ),
    min_size=1,
    max_size=120,
)


class TestWindowedHistogramProperty:
    @given(
        observations=observations_strategy,
        order_seed=st.randoms(use_true_random=False),
        n_slices=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_merged_slices_equal_one_histogram_any_order(
        self, observations, order_seed, n_slices
    ):
        slice_seconds = 5.0
        clock = FakeClock()
        windowed = WindowedHistogram(
            n_slices=n_slices, slice_seconds=slice_seconds, clock=clock
        )
        shuffled = list(observations)
        order_seed.shuffle(shuffled)
        for when, value in shuffled:
            windowed.observe(value, now=when)

        # Reference: one plain histogram over exactly the observations
        # whose epoch is still inside the window relative to the *max*
        # epoch ever seen.  Too-old arrivals were dropped on entry.
        latest = max(math.floor(t / slice_seconds) for t, _ in observations)
        reference = Histogram()
        for when, value in observations:
            if math.floor(when / slice_seconds) > latest - n_slices:
                reference.observe(value)

        merged = windowed.merged(now=latest * slice_seconds)
        assert merged.counts == reference.counts
        assert merged.zeros == reference.zeros
        assert merged.count == reference.count
        assert merged.min == reference.min
        assert merged.max == reference.max
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            got, want = merged.quantile(q), reference.quantile(q)
            assert got == want or (math.isnan(got) and math.isnan(want))

        # The lifetime view loses nothing: slices evicted by rotation and
        # observations too old on arrival are folded into the retired
        # part, so it equals one histogram of *every* observation.
        everything = Histogram()
        everything.observe_many(value for _, value in observations)
        lifetime = windowed.lifetime()
        assert lifetime.counts == everything.counts
        assert lifetime.zeros == everything.zeros
        assert lifetime.count == everything.count == len(observations)
        assert lifetime.min == everything.min
        assert lifetime.max == everything.max

    def test_rotation_evicts_old_slices(self):
        clock = FakeClock()
        windowed = WindowedHistogram(n_slices=3, slice_seconds=10.0, clock=clock)
        windowed.observe(1.0, now=5.0)  # epoch 0
        windowed.observe(2.0, now=15.0)  # epoch 1
        assert windowed.summary(now=15.0)["count"] == 2

        # Epoch 3: epoch 0 falls out (window = epochs 1..3).
        windowed.observe(3.0, now=35.0)
        summary = windowed.summary(now=35.0)
        assert summary["count"] == 2
        assert summary["min"] == 2.0

        # Jump far ahead: everything ages out, then new data lands.
        assert windowed.summary(now=500.0)["count"] == 0
        windowed.observe(9.0, now=500.0)
        assert windowed.summary(now=500.0)["count"] == 1

    def test_too_old_out_of_order_observation_is_dropped(self):
        windowed = WindowedHistogram(
            n_slices=2, slice_seconds=10.0, clock=FakeClock()
        )
        windowed.observe(1.0, now=50.0)  # epoch 5; window = epochs 4..5
        windowed.observe(2.0, now=10.0)  # epoch 1: older than the window
        assert windowed.summary(now=50.0)["count"] == 1

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            WindowedHistogram(n_slices=0)
        with pytest.raises(ValueError):
            WindowedHistogram(slice_seconds=0.0)


class TestWindowedCounter:
    def test_total_tracks_only_the_window(self):
        counter = WindowedCounter(
            n_slices=2, slice_seconds=10.0, clock=FakeClock()
        )
        counter.add(5, now=5.0)  # epoch 0
        counter.add(7, now=15.0)  # epoch 1
        assert counter.total(now=15.0) == 12.0
        counter.add(1, now=25.0)  # epoch 2: epoch 0 evicted
        assert counter.total(now=25.0) == 8.0
        counter.add(4, now=3.0)  # epoch 0 again: too old on arrival
        assert counter.total(now=25.0) == 8.0
        # The lifetime total keeps the evicted and the too-old adds.
        assert counter.lifetime() == 17

    def test_rate_uses_elapsed_time_before_window_fills(self):
        # 2 s into life with 10 events the rate must read ~5/s, not
        # 10 / full-window-width.
        counter = WindowedCounter(
            n_slices=6, slice_seconds=10.0, clock=FakeClock()
        )
        counter.add(10, now=100.0)
        assert counter.rate(now=102.0) == pytest.approx(5.0)

    def test_rate_uses_window_width_once_filled(self):
        counter = WindowedCounter(n_slices=2, slice_seconds=10.0, clock=FakeClock())
        counter.add(40, now=5.0)
        counter.add(40, now=15.0)
        # Divisor is elapsed-since-first-recording (t=5) while that is
        # later than the window floor: 80 events over 14 s.
        assert counter.rate(now=19.0) == pytest.approx(80.0 / 14.0)
        # Far later the window floor dominates: at t=95 the window
        # covers epochs 8..9 (floor t=80), and everything was evicted.
        assert counter.rate(now=95.0) == 0.0

    def test_clock_default_is_used_when_now_omitted(self):
        clock = FakeClock(now=42.0)
        counter = WindowedCounter(clock=clock)
        counter.add(3)
        assert counter.total() == 3.0


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
