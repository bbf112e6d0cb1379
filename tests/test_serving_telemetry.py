"""Tests for the serving telemetry sidecar (repro.serving.telemetry).

Covers the snapshot contract (stable, JSON-serializable keys), the
one rate divisor of the windowed section, the deterministic 1-in-k trace
sampling, the schema-v2 validity of the ``TraceEventLog`` sink, SLO
evaluation cadence, the Prometheus text exposition, and seeded replays
pinned against recorded digests of every read.
"""

import hashlib
import json
import random
import sys
import threading

import pytest

from repro.obs import load_trace, validate_file
from repro.obs.live import SloRule
from repro.serving import (
    SNAPSHOT_SCHEMA,
    ServingFrontend,
    ServingTelemetry,
    TelemetryConfig,
    TraceEventLog,
    compile_model,
    render_prometheus,
)
from repro.serving.telemetry import _MAX_SAMPLES
from tests.serving_common import fitted_pipeline


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

    def test_errors_per_s_shares_the_request_rate_divisor(self):
        # 100 ok requests one second apart, then one error: the error
        # rate over the window and errors_per_s must agree, i.e. errors
        # divide by the same covered seconds as requests.
        clock = FakeClock()
        telemetry = ServingTelemetry(clock=clock)
        for second in range(100):
            clock.now = float(second)
            telemetry.record_request(
                request_id=second, rows=1, queue_wait_s=0.0, execute_s=0.001
            )
        clock.now = 100.0
        telemetry.record_request(
            request_id=100, rows=1, queue_wait_s=0.0, execute_s=0.001,
            outcome="error", error="ValueError",
        )
        windowed = telemetry.snapshot()["windowed"]
        assert windowed["errors"] == 1
        assert windowed["requests"] == 51  # t = 50..100 inside 6 x 10 s
        assert windowed["requests_per_s"] == pytest.approx(51 / 50)
        assert windowed["errors_per_s"] == pytest.approx(
            windowed["requests_per_s"]
            * windowed["errors"]
            / windowed["requests"]
        )
        assert windowed["errors_per_s"] == pytest.approx(0.02)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_every=0)


class TestConcurrentRecording:
    def test_no_lost_updates_under_contention(self):
        # More recording threads than cores, switching as often as the
        # interpreter allows, with a new slice every 20 records so slices
        # are created and evicted under contention: every field of every
        # record must land, in the window or in the retired slice.
        telemetry = make_telemetry(sample_every=7)
        n_threads, per_thread = 8, 1000

        def worker(base):
            for i in range(per_thread):
                telemetry.record_request(
                    request_id=base + i, rows=2, queue_wait_s=0.001,
                    execute_s=0.002, dropped_unknown=1,
                    outcome=("ok", "error", "cancelled")[i % 3],
                    now=i * 0.05,
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(t * per_thread,))
                for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = n_threads * per_thread
        cancelled = n_threads * len(range(2, per_thread, 3))
        errors = n_threads * len(range(1, per_thread, 3))
        totals = telemetry.totals()
        assert totals["requests"] == total
        assert totals["rows"] == 2 * total
        assert totals["dropped_unknown_items"] == total
        assert (totals["errors"], totals["cancelled"]) == (errors, cancelled)
        assert totals["sampled_traces"] == len(range(0, total, 7))
        lifetime = telemetry.window.lifetime()
        assert lifetime.latency.count == lifetime.batch_rows.count
        assert lifetime.latency.count == total - cancelled


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
        total = _MAX_SAMPLES + 50
        for i in range(total):
            telemetry.record_request(
                request_id=i, rows=1, queue_wait_s=0.0, execute_s=0.001
            )
        samples = telemetry.snapshot()["samples"]
        assert [s["request_id"] for s in samples] == list(
            range(total - _MAX_SAMPLES, total)
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

    def test_evaluates_exactly_when_the_ring_opens_a_slice(self):
        # At 0.1 s slices, floor division and true division disagree on
        # the epoch of many of the stamps 0.1 ... 19.9 (2.3 // 0.1 is
        # 22.0, 2.3 / 0.1 is 23.0); the evaluation epoch is the ring's.
        clock = FakeClock()
        telemetry = make_telemetry(
            clock=clock,
            slice_seconds=0.1,
            sample_every=1000,
            slos=(SloRule("p99", "p99_latency_s", 0.1),),
        )
        slices: set[int] = set()
        for k in range(1, 200):
            clock.now = k / 10
            before = telemetry.slo.snapshot()["evaluations"]
            telemetry.record_request(
                request_id=k, rows=1, queue_wait_s=0.0, execute_s=0.001
            )
            opened = set(telemetry.window._slices) - slices
            slices |= opened
            evaluated = telemetry.slo.snapshot()["evaluations"] - before
            assert evaluated == (1 if opened and k > 1 else 0), clock.now


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


def _read(frontend):
    """Every exposition surface of one read, as canonical JSON text.

    Wall-clock stamps (``time_unix``, the SLO alerts' ``time``) and
    ``errors_per_s`` with its gauge are left out; the replay test checks
    ``errors_per_s`` on its own."""
    telemetry = frontend.telemetry
    snapshot = telemetry.snapshot()
    del snapshot["time_unix"]
    for alert in snapshot["slo"]["alerts"]:
        del alert["time"]
    prometheus = [
        line
        for line in render_prometheus(snapshot).splitlines()
        if "window_errors_per_second" not in line
    ]
    errors_per_s = snapshot["windowed"].pop("errors_per_s")
    read = {
        "snapshot": snapshot,
        "prometheus": prometheus,
        "totals": telemetry.totals(),
        "slo_values": telemetry.slo_values(),
        "stats": frontend.stats(),
    }
    return json.dumps(read, sort_keys=True), errors_per_s, snapshot["windowed"]


def _replay(seed, model):
    """A seeded mix of ok, error and cancelled requests on a monotonic
    fake clock, read at random points and once after a final pause."""
    rng = random.Random(seed)
    slice_seconds = rng.choice((0.5, 1.0, 10.0))
    clock = FakeClock(now=rng.uniform(0.0, 100.0))
    telemetry = ServingTelemetry(
        TelemetryConfig(
            slice_seconds=slice_seconds,
            sample_every=rng.choice((4, 16)),
            slos=(
                SloRule("p99", "p99_latency_s", 0.02),
                SloRule("errors", "error_rate", 0.2),
            ),
        ),
        clock=clock,
    )
    frontend = ServingFrontend(
        model, n_workers=1, queue_size=8, telemetry=telemetry
    )
    reads = []
    try:
        for request_id in range(rng.randint(1, 60)):
            clock.now += (
                rng.choice((0.0, 0.1, 1.0, 7.0)) * slice_seconds * rng.random()
            )
            outcome = rng.choices(("ok", "error", "cancelled"), (8, 1, 1))[0]
            telemetry.record_request(
                request_id=request_id,
                rows=rng.randint(1, 9),
                queue_wait_s=rng.uniform(0.0, 0.01),
                execute_s=rng.expovariate(100.0),
                dropped_unknown=rng.choice((0, 0, 0, 2)),
                outcome=outcome,
                error="ValueError" if outcome == "error" else None,
            )
            if rng.random() < 0.05:
                reads.append(_read(frontend))
        clock.now += rng.uniform(0.0, 8.0) * slice_seconds
        reads.append(_read(frontend))
    finally:
        frontend.close()
    return reads


#: sha256 prefixes of each seed's reads, recorded from the implementation
#: the slice ring replaced (one separately clocked windowed instrument
#: per field).  Only ``errors_per_s`` was meant to change.
REPLAY_DIGESTS = {
    0: "0cc45d5c0bc2fa7e",
    1: "6fa3bac48281a3c4",
    2: "b86de5b5f6e83774",
    3: "63197d7adfbd3c3c",
    4: "3dd4eecb84473156",
    5: "199543242b8abd33",
    6: "7618ae638b85c7f9",
    7: "f8fb6862cb8794bb",
    8: "e6c08aebc2d25b4e",
    9: "02a2a0ff05da2552",
    10: "aab4bc6d488ad3da",
    11: "9111c65461b047ce",
    12: "5aaa8a78cf4aca64",
    13: "901c46928f843660",
    14: "3c1d9be3c82c8068",
    15: "cae4f132698a435e",
    16: "47dfdcce08782aef",
    17: "19c7f3df4ce90414",
    18: "710e8aad5569f4b5",
    19: "1bcd9b0081aa9cb5",
    20: "d2a5b2046a5e9e42",
    21: "b9d1fef297d084c1",
    22: "9970fd2c4aad76be",
    23: "b9603be0b1a78581",
}


class TestReplayUnchanged:
    @pytest.fixture(scope="class")
    def replays(self):
        model = compile_model(fitted_pipeline("naive_bayes")[0])
        return {seed: _replay(seed, model) for seed in REPLAY_DIGESTS}

    def test_reads_match_recorded_digests(self, replays):
        for seed, reads in replays.items():
            text = "\n".join(read for read, _, _ in reads)
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            assert digest == REPLAY_DIGESTS[seed], f"seed {seed}"

    def test_errors_per_s_divides_by_the_request_rate_seconds(self, replays):
        for seed, reads in replays.items():
            for _, errors_per_s, windowed in reads:
                if windowed["requests"] == 0:
                    assert errors_per_s == 0.0
                    continue
                assert errors_per_s == pytest.approx(
                    windowed["requests_per_s"]
                    * windowed["errors"]
                    / windowed["requests"]
                ), f"seed {seed}"
