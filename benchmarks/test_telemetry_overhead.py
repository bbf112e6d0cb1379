"""Overhead bound for configured serving telemetry: enabled vs plain.

Every frontend records each request once into a
:class:`~repro.serving.telemetry.ServingTelemetry`; ``telemetry=None``
gives it the default one (windowed histograms and rate counters, no SLO
rules, no event log).  That is the *plain* side here.  The *telemetry*
side passes a configured instance — an SLO rule evaluated per window
rotation and 1-in-16 trace sampling on a 1 s slice — and may cost at
most 10% more CPU than the plain side.

Measured with the interleaved paired-run technique from
``test_obs_overhead.py``: plain/telemetry samples alternate inside one
loop so both sides share each machine regime, and the bound is asserted
on the *minimum paired CPU ratio* — frequency drift cancels within a
pair, GC-polluted pairs are discarded by the minimum, while a real
regression shifts every pair and still fails.

Writes ``BENCH_telemetry_overhead.json`` and records both wall times in
the trend store, gated by ``repro bench check`` via
``benchmarks/gating.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.live import SloRule
from repro.serving import (
    ServingFrontend,
    ServingTelemetry,
    TelemetryConfig,
    compile_model,
)
from tests.serving_common import fitted_pipeline

#: Maximum tolerated telemetry-enabled overhead (fraction of CPU time).
TELEMETRY_BUDGET = 0.10

_REPORT_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_telemetry_overhead.json"
)

#: Interleaved paired repeats; minimums filter scheduler noise.
_REPEATS = 5

#: Requests per timed run (single worker keeps the path deterministic).
_REQUESTS = 300


def _make_telemetry() -> ServingTelemetry:
    return ServingTelemetry(
        TelemetryConfig(
            slice_seconds=1.0,
            sample_every=16,
            slos=(SloRule("p99_latency", "p99_latency_s", 60.0),),
        )
    )


def _run(compiled, batches, telemetry) -> None:
    with ServingFrontend(
        compiled, n_workers=1, queue_size=32, telemetry=telemetry
    ) as frontend:
        for batch in batches:
            frontend.predict(batch)


def _interleaved(compiled, batches) -> dict:
    best = {
        "plain_wall": float("inf"),
        "telemetry_wall": float("inf"),
        "plain_cpu": float("inf"),
        "telemetry_cpu": float("inf"),
    }
    cpu_ratios = []

    def sample(side, telemetry):
        wall = time.perf_counter()
        cpu = time.process_time()
        _run(compiled, batches, telemetry)
        cpu = time.process_time() - cpu
        best[f"{side}_cpu"] = min(best[f"{side}_cpu"], cpu)
        best[f"{side}_wall"] = min(
            best[f"{side}_wall"], time.perf_counter() - wall
        )
        return cpu

    for _ in range(_REPEATS):
        plain_cpu = sample("plain", None)
        telemetry_cpu = sample("telemetry", _make_telemetry())
        cpu_ratios.append(telemetry_cpu / plain_cpu)
    best["cpu_ratios"] = cpu_ratios
    return best


def test_telemetry_overhead_under_budget(report_lines, trend):
    pipeline, data = fitted_pipeline("svm")
    compiled = compile_model(pipeline)
    base = [
        data.transactions[start : start + 8]
        for start in range(0, data.n_rows, 8)
    ]
    batches = [base[i % len(base)] for i in range(_REQUESTS)]
    _run(compiled, batches, None)  # warm both code paths untimed
    _run(compiled, batches, _make_telemetry())

    timings = _interleaved(compiled, batches)
    overhead = max(0.0, min(timings["cpu_ratios"]) - 1.0)

    report = {
        "benchmark": "telemetry_overhead",
        "workload": f"{_REQUESTS} requests x 8 rows, 1 worker, synthetic svm",
        "plain_wall_s": round(timings["plain_wall"], 6),
        "telemetry_wall_s": round(timings["telemetry_wall"], 6),
        "plain_cpu_s": round(timings["plain_cpu"], 6),
        "telemetry_cpu_s": round(timings["telemetry_cpu"], 6),
        "cpu_ratios": [round(r, 4) for r in timings["cpu_ratios"]],
        "overhead_fraction": round(overhead, 6),
        "budget_fraction": TELEMETRY_BUDGET,
    }
    _REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    meta = {"workload": report["workload"]}
    trend("serving.telemetry_plain_wall_s", timings["plain_wall"], meta=meta)
    trend(
        "serving.telemetry_enabled_wall_s",
        timings["telemetry_wall"],
        meta=meta,
    )

    report_lines.append(
        "serving telemetry overhead (interleaved paired runs)\n"
        f"  plain     {1e3 * timings['plain_wall']:8.2f} ms wall   "
        f"{1e3 * timings['plain_cpu']:8.2f} ms cpu\n"
        f"  telemetry {1e3 * timings['telemetry_wall']:8.2f} ms wall   "
        f"{1e3 * timings['telemetry_cpu']:8.2f} ms cpu "
        f"({100 * overhead:+.2f}%, budget {100 * TELEMETRY_BUDGET:.0f}%)\n"
        f"  wrote {_REPORT_PATH.name}"
    )

    assert overhead < TELEMETRY_BUDGET, (
        f"telemetry costs {100 * overhead:.2f}% of the frontend's CPU time "
        f"in every one of {len(timings['cpu_ratios'])} paired runs (best "
        f"plain {timings['plain_cpu']:.3f}s, best telemetry "
        f"{timings['telemetry_cpu']:.3f}s); budget is "
        f"{100 * TELEMETRY_BUDGET:.0f}%"
    )


def test_telemetry_run_records_real_signals():
    """Sanity: the timed telemetry run actually exercises the configured
    telemetry (otherwise the bound above is vacuous)."""
    pipeline, data = fitted_pipeline("svm")
    compiled = compile_model(pipeline)
    telemetry = _make_telemetry()
    batches = [data.transactions[:8]] * 64
    _run(compiled, batches, telemetry)
    snapshot = telemetry.snapshot()
    assert snapshot["cumulative"]["requests"] == 64
    assert snapshot["cumulative"]["sampled_traces"] == 4
    assert snapshot["windowed"]["latency_s"]["count"] > 0
    assert snapshot["slo"]["rules"]
