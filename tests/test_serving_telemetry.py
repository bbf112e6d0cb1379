"""Tests for the serving telemetry sidecar (repro.serving.telemetry).

Covers the snapshot contract (stable, JSON-serializable keys), the
deterministic 1-in-k trace sampling, the schema-v2 validity of the
``TraceEventLog`` sink, SLO evaluation cadence, and the Prometheus text
exposition.
"""

import json

import pytest

from repro.obs import load_trace, validate_file
from repro.obs.live import SloRule
from repro.serving import (
    SNAPSHOT_SCHEMA,
    ServingTelemetry,
    TelemetryConfig,
    TraceEventLog,
    render_prometheus,
)
from repro.serving.telemetry import _RING_SIZE


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def make_telemetry(clock=None, **config):
    config.setdefault("slice_seconds", 1.0)
    return ServingTelemetry(
        TelemetryConfig(**config), clock=clock or FakeClock()
    )


SNAPSHOT_KEYS = [
    "cumulative",
    "queue",
    "samples",
    "schema",
    "slo",
    "time_unix",
    "uptime_s",
    "window",
    "windowed",
]

WINDOWED_KEYS = [
    "batch_rows",
    "error_rate",
    "errors",
    "errors_per_s",
    "execute_s",
    "latency_s",
    "queue_wait_s",
    "requests",
    "requests_per_s",
    "rows",
    "rows_per_s",
]

CUMULATIVE_KEYS = [
    "cancelled",
    "dropped_unknown_items",
    "errors",
    "requests",
    "rows",
    "sampled_traces",
    "worker_deaths",
]


class TestSnapshot:
    def test_snapshot_is_json_stable_with_pinned_keys(self):
        telemetry = make_telemetry(sample_every=2)
        for i in range(10):
            telemetry.record_request(
                request_id=i,
                rows=3,
                queue_wait_s=0.001,
                execute_s=0.01,
                dropped_unknown=1 if i == 4 else 0,
                outcome="error" if i == 7 else "ok",
                error="ValueError" if i == 7 else None,
            )
        snapshot = telemetry.snapshot()
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert sorted(snapshot) == SNAPSHOT_KEYS
        assert sorted(snapshot["windowed"]) == WINDOWED_KEYS
        assert sorted(snapshot["cumulative"]) == CUMULATIVE_KEYS
        # Round-trips through JSON without custom encoders.
        assert json.loads(json.dumps(snapshot, sort_keys=True)) is not None
        assert snapshot["cumulative"]["requests"] == 10
        assert snapshot["cumulative"]["rows"] == 30
        assert snapshot["cumulative"]["errors"] == 1
        assert snapshot["cumulative"]["dropped_unknown_items"] == 1
        assert snapshot["windowed"]["error_rate"] == pytest.approx(0.1)
        assert snapshot["windowed"]["latency_s"]["count"] == 10

    def test_cancelled_requests_skip_latency_but_count(self):
        telemetry = make_telemetry()
        telemetry.record_request(
            request_id=0, rows=5, queue_wait_s=9.0, execute_s=0.0,
            outcome="cancelled",
        )
        snapshot = telemetry.snapshot()
        assert snapshot["cumulative"]["cancelled"] == 1
        assert snapshot["cumulative"]["requests"] == 1
        assert snapshot["windowed"]["latency_s"]["count"] == 0

    def test_queue_binding_reports_saturation(self):
        telemetry = make_telemetry()
        telemetry.bind_queue(lambda: 16, 64)
        queue = telemetry.snapshot()["queue"]
        assert queue == {"depth": 16, "capacity": 64, "saturation": 0.25}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_every=0)


class TestSampling:
    def test_one_in_k_sampling_is_deterministic(self):
        telemetry = make_telemetry(sample_every=4)
        for i in range(20):
            telemetry.record_request(
                request_id=i, rows=1, queue_wait_s=0.0, execute_s=0.001
            )
        snapshot = telemetry.snapshot()
        sampled_ids = [s["request_id"] for s in snapshot["samples"]]
        assert sampled_ids == [0, 4, 8, 12, 16]
        assert snapshot["cumulative"]["sampled_traces"] == 5

    def test_sample_ring_is_bounded(self):
        telemetry = make_telemetry(sample_every=1)
        total = _RING_SIZE + 50
        for i in range(total):
            telemetry.record_request(
                request_id=i, rows=1, queue_wait_s=0.0, execute_s=0.001
            )
        samples = telemetry.snapshot()["samples"]
        assert [s["request_id"] for s in samples] == list(
            range(total - _RING_SIZE, total)
        )


class TestTraceEventLog:
    def test_event_log_is_a_valid_schema_v2_trace(self, tmp_path):
        path = tmp_path / "serving.jsonl"
        log = TraceEventLog(path, config={"workers": 2})
        telemetry = ServingTelemetry(
            TelemetryConfig(slice_seconds=1.0, sample_every=2),
            event_log=log,
            clock=FakeClock(),
        )
        for i in range(6):
            telemetry.record_request(
                request_id=i, rows=2, queue_wait_s=0.001, execute_s=0.01,
                outcome="error" if i == 2 else "ok",
                error="RuntimeError" if i == 2 else None,
            )
        telemetry.record_worker_death()
        telemetry.close()

        assert validate_file(path) == []
        trace = load_trace(path)
        kinds = [event["kind"] for event in trace.events]
        assert kinds.count("serving.request") == 3  # ids 0, 2, 4
        assert kinds.count("serving.worker_death") == 1
        assert trace.manifest["command"] == "serve"
        assert trace.manifest["config"]["workers"] == 2
        request_events = [
            e for e in trace.events if e["kind"] == "serving.request"
        ]
        assert request_events[1]["attrs"]["outcome"] == "error"
        assert request_events[1]["attrs"]["error"] == "RuntimeError"
        assert trace.rollup["counters"]["serving.requests"] == 6

    def test_close_is_idempotent_and_drops_late_events(self, tmp_path):
        path = tmp_path / "serving.jsonl"
        log = TraceEventLog(path)
        log.append_event("serving.request", "r", {"request_id": 0})
        log.close()
        log.close()
        log.append_event("serving.request", "late", {"request_id": 1})
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # manifest + 1 event + rollup
        assert validate_file(path) == []


class TestSloEvaluation:
    def slo_config(self):
        return dict(
            slice_seconds=1.0,
            sample_every=1000,
            slos=(SloRule("p99", "p99_latency_s", 0.1),),
        )

    def test_evaluates_once_per_epoch_advance(self):
        clock = FakeClock(now=100.0)
        telemetry = make_telemetry(clock=clock, **self.slo_config())
        slow = dict(request_id=1, rows=1, queue_wait_s=0.0, execute_s=5.0)
        telemetry.record_request(**slow)  # initializes the eval epoch
        telemetry.record_request(**slow)  # same epoch: no evaluation
        assert telemetry.snapshot()["slo"]["evaluations"] == 0

        clock.now = 101.0  # next slice epoch → one evaluation, breaching
        telemetry.record_request(**slow)
        slo = telemetry.snapshot()["slo"]
        assert slo["evaluations"] == 1
        assert slo["firing"] == ["p99"]
        assert slo["breaches"] == 1

    def test_firing_then_resolved_as_traffic_recovers(self):
        clock = FakeClock(now=100.0)
        telemetry = make_telemetry(clock=clock, **self.slo_config())
        telemetry.record_request(
            request_id=1, rows=1, queue_wait_s=0.0, execute_s=5.0
        )
        clock.now = 101.0
        transitions = telemetry.maybe_evaluate()
        assert [t["state"] for t in transitions] == ["firing"]

        # Fast traffic for long enough that the slow epoch rotates out.
        for step in range(8):
            clock.now = 102.0 + step
            telemetry.record_request(
                request_id=100 + step, rows=1,
                queue_wait_s=0.0, execute_s=0.001,
            )
        slo = telemetry.snapshot()["slo"]
        assert slo["firing"] == []
        alerts = [a["state"] for a in slo["alerts"]]
        assert alerts == ["firing", "resolved"]


class TestPrometheus:
    def test_renders_counters_gauges_and_summaries(self):
        telemetry = make_telemetry(
            sample_every=1000,
            slos=(SloRule("p99", "p99_latency_s", 0.1),),
        )
        telemetry.bind_queue(lambda: 4, 64)
        for i in range(10):
            telemetry.record_request(
                request_id=i, rows=2, queue_wait_s=0.001, execute_s=0.01,
                outcome="error" if i == 9 else "ok",
            )
        text = render_prometheus(telemetry.snapshot())
        assert "# TYPE repro_serving_requests_total counter" in text
        assert "repro_serving_requests_total 10" in text
        assert "repro_serving_rows_total 20" in text
        assert "repro_serving_errors_total 1" in text
        assert "repro_serving_queue_depth 4" in text
        assert 'repro_serving_request_latency_seconds{quantile="0.99"}' in text
        assert "repro_serving_request_latency_seconds_count 10" in text
        assert 'repro_serving_slo_firing{rule="p99"} 0' in text
        # Every line is "name{labels} value" or a comment.
        for line in text.strip().splitlines():
            assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2

    def test_empty_snapshot_omits_quantile_lines(self):
        telemetry = make_telemetry()
        text = render_prometheus(telemetry.snapshot())
        assert "quantile=" not in text
        assert "repro_serving_requests_total 0" in text
        assert "slo_firing" not in text  # no rules configured
